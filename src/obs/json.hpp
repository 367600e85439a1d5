#pragma once
// Minimal JSON support for the observability layer: a streaming writer used
// by the metrics/trace exporters and a small recursive-descent parser used
// by tests and telemetry validators to check that exported documents
// round-trip. Not a general-purpose JSON library — no comments, no
// non-finite numbers (they are written as 0), UTF-8 passed through opaquely.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace rb::obs {

/// Escape `s` for inclusion inside a JSON string literal (no quotes added).
std::string json_escape(std::string_view s);

/// Append-only JSON writer. The caller is responsible for well-formedness
/// of nesting (begin/end pairs); commas are inserted automatically.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object key; must be followed by exactly one value or begin_*().
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view{s}); }
  JsonWriter& value(double d);
  JsonWriter& value(std::int64_t i);
  JsonWriter& value(std::uint64_t u);
  JsonWriter& value(bool b);

  const std::string& str() const noexcept { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void comma();

  std::string out_;
  /// Per-depth "an element has been written" flags for comma placement.
  std::vector<bool> needs_comma_{false};
  bool after_key_ = false;
};

/// Parsed JSON value (tests / validators only; not performance-sensitive).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const noexcept { return kind == Kind::kObject; }
  bool is_array() const noexcept { return kind == Kind::kArray; }
  bool is_number() const noexcept { return kind == Kind::kNumber; }
  bool is_string() const noexcept { return kind == Kind::kString; }

  /// Object member lookup; throws std::out_of_range when absent.
  const JsonValue& at(const std::string& k) const { return object.at(k); }
  bool contains(const std::string& k) const {
    return object.find(k) != object.end();
  }
};

/// Deepest container nesting json_parse accepts. The parser recurses once
/// per level, so the limit keeps hostile input from exhausting the stack.
inline constexpr std::size_t kJsonMaxDepth = 512;

/// Parse a complete JSON document. Throws std::invalid_argument on any
/// syntax error, trailing garbage, or nesting deeper than kJsonMaxDepth.
JsonValue json_parse(std::string_view text);

}  // namespace rb::obs
