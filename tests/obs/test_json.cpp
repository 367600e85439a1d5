// obs::json writer + parser: nested documents must round-trip through
// JsonWriter -> json_parse, escaping must survive the trip, and non-finite
// doubles must be written as 0 (the format has no Inf/NaN barewords), and
// nesting past the parser's depth limit is a typed error, not a crash.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "obs/json.hpp"

namespace rb::obs {
namespace {

TEST(JsonWriter, NestedDocumentRoundTrips) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("exemplar \"tail\"\n");
  w.key("count").value(std::int64_t{-3});
  w.key("retained").value(true);
  w.key("spans").begin_array();
  w.begin_object();
  w.key("segment").value("queue");
  w.key("dur_ps").value(std::uint64_t{9007199254740992});  // 2^53, exact
  w.key("children").begin_array();
  w.value(1.5).value(std::int64_t{2});
  w.end_array();
  w.end_object();
  w.end_array();
  w.key("empty_obj").begin_object();
  w.end_object();
  w.key("empty_arr").begin_array();
  w.end_array();
  w.end_object();

  const JsonValue doc = json_parse(w.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("name").string, "exemplar \"tail\"\n");
  EXPECT_DOUBLE_EQ(doc.at("count").number, -3.0);
  EXPECT_TRUE(doc.at("retained").boolean);
  ASSERT_EQ(doc.at("spans").array.size(), 1u);
  const JsonValue& span = doc.at("spans").array[0];
  EXPECT_EQ(span.at("segment").string, "queue");
  EXPECT_DOUBLE_EQ(span.at("dur_ps").number, 9007199254740992.0);
  ASSERT_EQ(span.at("children").array.size(), 2u);
  EXPECT_DOUBLE_EQ(span.at("children").array[0].number, 1.5);
  EXPECT_TRUE(doc.at("empty_obj").is_object());
  EXPECT_TRUE(doc.at("empty_obj").object.empty());
  EXPECT_TRUE(doc.at("empty_arr").is_array());
  EXPECT_TRUE(doc.at("empty_arr").array.empty());
}

TEST(JsonWriter, NonFiniteDoublesAreWrittenAsZero) {
  // A NaN latency or an Inf rate must never corrupt the document: the
  // writer's contract is "non-finite numbers are written as 0".
  JsonWriter w;
  w.begin_object();
  w.key("nan").value(std::numeric_limits<double>::quiet_NaN());
  w.key("inf").value(std::numeric_limits<double>::infinity());
  w.key("neg_inf").value(-std::numeric_limits<double>::infinity());
  w.key("finite").value(2.5);
  w.end_object();

  const JsonValue doc = json_parse(w.str());  // must be parseable at all
  EXPECT_DOUBLE_EQ(doc.at("nan").number, 0.0);
  EXPECT_DOUBLE_EQ(doc.at("inf").number, 0.0);
  EXPECT_DOUBLE_EQ(doc.at("neg_inf").number, 0.0);
  EXPECT_DOUBLE_EQ(doc.at("finite").number, 2.5);
}

TEST(JsonEscape, ControlCharactersAndQuotes) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string{"\x01"}), "\\u0001");
}

TEST(JsonParse, LiteralsAndNumbers) {
  const JsonValue doc = json_parse("[null, true, false, -2.5, 1e3, 0.125]");
  ASSERT_EQ(doc.array.size(), 6u);
  EXPECT_EQ(doc.array[0].kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(doc.array[1].boolean);
  EXPECT_FALSE(doc.array[2].boolean);
  EXPECT_DOUBLE_EQ(doc.array[3].number, -2.5);
  EXPECT_DOUBLE_EQ(doc.array[4].number, 1000.0);
  EXPECT_DOUBLE_EQ(doc.array[5].number, 0.125);
}

TEST(JsonParse, UnicodeEscapeDecodesToUtf8) {
  const JsonValue doc = json_parse("\"\\u00e9\\u0041\"");
  EXPECT_EQ(doc.string, "\xc3\xa9"
                        "A");
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_THROW(json_parse("{\"a\": 1} extra"), std::invalid_argument);
  EXPECT_THROW(json_parse("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW(json_parse("[1, 2"), std::invalid_argument);
  EXPECT_THROW(json_parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(json_parse("nully"), std::invalid_argument);
  EXPECT_THROW(json_parse(""), std::invalid_argument);
}

TEST(JsonParse, NestingIsBoundedWithATypedError) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const JsonValue doc = json_parse(nested(kJsonMaxDepth));
  EXPECT_TRUE(doc.is_array());
  EXPECT_THROW(json_parse(nested(kJsonMaxDepth + 1)), std::invalid_argument);
  EXPECT_THROW(json_parse("{\"a\":" + nested(kJsonMaxDepth) + "}"),
               std::invalid_argument);
  // Deep enough to overflow the stack of an unbounded recursive parser.
  EXPECT_THROW(json_parse(std::string(100'000, '[')), std::invalid_argument);
}

TEST(JsonValue, AtThrowsOnMissingKey) {
  const JsonValue doc = json_parse("{\"a\": 1}");
  EXPECT_TRUE(doc.contains("a"));
  EXPECT_FALSE(doc.contains("b"));
  EXPECT_THROW(doc.at("b"), std::out_of_range);
}

}  // namespace
}  // namespace rb::obs
