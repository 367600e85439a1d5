#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace rb::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (needs_comma_.back()) out_ += ',';
  needs_comma_.back() = true;
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma();
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  comma();
  out_ += '"';
  out_ += json_escape(s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  comma();
  if (!std::isfinite(d)) d = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t i) {
  comma();
  out_ += std::to_string(i);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t u) {
  comma();
  out_ += std::to_string(u);
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  comma();
  out_ += b ? "true" : "false";
  return *this;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_{text} {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size())
      throw std::invalid_argument{"json: trailing garbage at " +
                                  std::to_string(pos_)};
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument{"json: " + what + " at offset " +
                                std::to_string(pos_)};
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // The exporters only emit \u00xx; decode BMP points as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  /// `depth` counts the containers enclosing this value.
  JsonValue parse_value(std::size_t depth = 0) {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    JsonValue v;
    const char c = peek();
    if ((c == '{' || c == '[') && depth == kJsonMaxDepth) {
      fail("nesting deeper than " + std::to_string(kJsonMaxDepth));
    }
    if (c == '{') {
      ++pos_;
      v.kind = JsonValue::Kind::kObject;
      skip_ws();
      if (peek() == '}') { ++pos_; return v; }
      for (;;) {
        skip_ws();
        std::string k = parse_string();
        skip_ws();
        expect(':');
        v.object.emplace(std::move(k), parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') { ++pos_; continue; }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      ++pos_;
      v.kind = JsonValue::Kind::kArray;
      skip_ws();
      if (peek() == ']') { ++pos_; return v; }
      for (;;) {
        v.array.push_back(parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') { ++pos_; continue; }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (consume_literal("true")) { v.kind = JsonValue::Kind::kBool; v.boolean = true; return v; }
    if (consume_literal("false")) { v.kind = JsonValue::Kind::kBool; return v; }
    if (consume_literal("null")) return v;
    // Number.
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    try {
      v.number = std::stod(std::string{text_.substr(start, pos_ - start)});
    } catch (const std::exception&) {
      fail("bad number");
    }
    v.kind = JsonValue::Kind::kNumber;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue json_parse(std::string_view text) {
  return Parser{text}.parse_document();
}

}  // namespace rb::obs
