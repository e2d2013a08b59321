#include "support/json.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "support/check.hpp"
#include "support/string_util.hpp"

namespace cvmt {

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::as_bool() const {
  CVMT_CHECK_MSG(kind_ == Kind::kBool, "JSON value is not a bool");
  return bool_;
}

std::int64_t JsonValue::as_int() const {
  CVMT_CHECK_MSG(kind_ == Kind::kInt, "JSON value is not an integer");
  return int_;
}

double JsonValue::as_double() const {
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  CVMT_CHECK_MSG(kind_ == Kind::kDouble, "JSON value is not a number");
  return double_;
}

const std::string& JsonValue::as_string() const {
  CVMT_CHECK_MSG(kind_ == Kind::kString, "JSON value is not a string");
  return string_;
}

void JsonValue::push_back(JsonValue v) {
  CVMT_CHECK_MSG(kind_ == Kind::kArray, "JSON value is not an array");
  array_.push_back(std::move(v));
}

std::size_t JsonValue::size() const {
  if (kind_ == Kind::kArray) return array_.size();
  if (kind_ == Kind::kObject) return object_.size();
  CVMT_CHECK_MSG(false, "JSON value has no size");
  return 0;
}

const JsonValue& JsonValue::at(std::size_t i) const {
  CVMT_CHECK_MSG(kind_ == Kind::kArray, "JSON value is not an array");
  CVMT_CHECK_MSG(i < array_.size(), "JSON array index out of range");
  return array_[i];
}

void JsonValue::set(std::string key, JsonValue v) {
  CVMT_CHECK_MSG(kind_ == Kind::kObject, "JSON value is not an object");
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(v));
}

const JsonValue& JsonValue::get(std::string_view key) const {
  const JsonValue* v = find(key);
  CVMT_CHECK_MSG(v != nullptr, "missing JSON key: " + std::string(key));
  return *v;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  CVMT_CHECK_MSG(kind_ == Kind::kObject, "JSON value is not an object");
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  CVMT_CHECK_MSG(kind_ == Kind::kObject, "JSON value is not an object");
  return object_;
}

namespace {

void write_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x",
                        static_cast<unsigned>(ch));
          os << buf.data();
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

void write_double(std::ostream& os, double d) {
  // JSON has no Inf/NaN; experiments never produce them, but a crash here
  // would mask the real bug, so degrade to null.
  if (!std::isfinite(d)) {
    os << "null";
    return;
  }
  std::array<char, 32> buf{};
  const auto [end, ec] =
      std::to_chars(buf.data(), buf.data() + buf.size(), d);
  CVMT_CHECK(ec == std::errc());
  os << std::string_view(buf.data(),
                         static_cast<std::size_t>(end - buf.data()));
}

void newline_indent(std::ostream& os, int indent, int depth) {
  if (indent < 0) return;
  os << '\n' << std::string(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void JsonValue::write_impl(std::ostream& os, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull: os << "null"; return;
    case Kind::kBool: os << (bool_ ? "true" : "false"); return;
    case Kind::kInt: os << int_; return;
    case Kind::kDouble: write_double(os, double_); return;
    case Kind::kString: write_escaped(os, string_); return;
    case Kind::kArray: {
      if (array_.empty()) {
        os << "[]";
        return;
      }
      os << '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) os << ',';
        newline_indent(os, indent, depth + 1);
        array_[i].write_impl(os, indent, depth + 1);
      }
      newline_indent(os, indent, depth);
      os << ']';
      return;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        os << "{}";
        return;
      }
      os << '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i) os << ',';
        newline_indent(os, indent, depth + 1);
        write_escaped(os, object_[i].first);
        os << (indent < 0 ? ":" : ": ");
        object_[i].second.write_impl(os, indent, depth + 1);
      }
      newline_indent(os, indent, depth);
      os << '}';
      return;
    }
  }
}

void JsonValue::write(std::ostream& os, int indent) const {
  write_impl(os, indent, 0);
}

std::string JsonValue::dump(int indent) const {
  std::ostringstream os;
  write(os, indent);
  return os.str();
}

// ------------------------------------------------------------------ parser

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    CVMT_REQUIRE(pos_ == text_.size(),
                 "trailing characters after JSON document at offset " +
                     std::to_string(pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw CheckError("JSON parse error at offset " + std::to_string(pos_) +
                     ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (++depth_ > JsonValue::kMaxParseDepth)
        fail("nesting deeper than " +
             std::to_string(JsonValue::kMaxParseDepth) + " levels");
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return JsonValue(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return JsonValue(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return JsonValue(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return JsonValue();
    }
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          // UTF-8 encode (no surrogate-pair support; the experiment
          // output is ASCII).
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
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("bad number");
    if (!is_double) {
      std::int64_t i = 0;
      const auto [p, ec] =
          std::from_chars(token.data(), token.data() + token.size(), i);
      if (ec == std::errc() && p == token.data() + token.size())
        return JsonValue(i);
      // Out-of-range integers fall through to double.
    }
    double d = 0.0;
    const auto [p, ec] =
        std::from_chars(token.data(), token.data() + token.size(), d);
    if (ec != std::errc() || p != token.data() + token.size())
      fail("bad number");
    return JsonValue(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< open arrays/objects around pos_
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

// ------------------------------------------------------- field readers

namespace {

std::string field(std::string_view key) {
  return "field \"" + std::string(key) + "\" ";
}

}  // namespace

std::uint64_t get_u64_field(const JsonValue& obj, std::string_view key,
                            std::uint64_t fallback, std::uint64_t min,
                            std::uint64_t max) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  CVMT_REQUIRE(v->kind() == JsonValue::Kind::kInt && v->as_int() >= 0,
               field(key) + "must be a non-negative integer below 2^63");
  const auto u = static_cast<std::uint64_t>(v->as_int());
  CVMT_REQUIRE(u >= min, field(key) + "must be >= " + std::to_string(min));
  CVMT_REQUIRE(u <= max, field(key) + "must be <= " + std::to_string(max));
  return u;
}

std::string get_string_field(const JsonValue& obj, std::string_view key,
                             std::string fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  CVMT_REQUIRE(v->kind() == JsonValue::Kind::kString,
               field(key) + "must be a string");
  return v->as_string();
}

bool get_bool_field(const JsonValue& obj, std::string_view key,
                    bool fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  CVMT_REQUIRE(v->kind() == JsonValue::Kind::kBool,
               field(key) + "must be a boolean");
  return v->as_bool();
}

std::vector<std::string> get_string_array(const JsonValue& obj,
                                          std::string_view key) {
  std::vector<std::string> out;
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return out;
  CVMT_REQUIRE(v->kind() == JsonValue::Kind::kArray,
               field(key) + "must be an array of strings");
  for (std::size_t i = 0; i < v->size(); ++i) {
    CVMT_REQUIRE(v->at(i).kind() == JsonValue::Kind::kString,
                 field(key) + "must be an array of strings");
    out.push_back(v->at(i).as_string());
  }
  return out;
}

void reject_unknown_keys(const JsonValue& obj, std::string_view where,
                         std::initializer_list<std::string_view> known) {
  for (const auto& member : obj.members())
    CVMT_REQUIRE(
        std::find(known.begin(), known.end(), member.first) != known.end(),
        "unknown field \"" + excerpt(member.first) + "\" in " +
            std::string(where));
}

}  // namespace cvmt
