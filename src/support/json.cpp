#include "support/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iterator>
#include <ostream>

#include "support/check.hpp"
#include "support/string_util.hpp"

namespace cvmt {

JsonValue JsonValue::array() {
  JsonValue v;
  v.value_.emplace<Array>();
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.value_.emplace<Object>();
  return v;
}

bool JsonValue::as_bool() const {
  const bool* b = std::get_if<bool>(&value_);
  CVMT_CHECK_MSG(b != nullptr, "JSON value is not a bool");
  return *b;
}

std::int64_t JsonValue::as_int() const {
  const std::int64_t* i = std::get_if<std::int64_t>(&value_);
  CVMT_CHECK_MSG(i != nullptr, "JSON value is not an integer");
  return *i;
}

double JsonValue::as_double() const {
  if (const std::int64_t* i = std::get_if<std::int64_t>(&value_))
    return static_cast<double>(*i);
  const double* d = std::get_if<double>(&value_);
  CVMT_CHECK_MSG(d != nullptr, "JSON value is not a number");
  return *d;
}

const std::string& JsonValue::as_string() const {
  const std::string* s = std::get_if<std::string>(&value_);
  CVMT_CHECK_MSG(s != nullptr, "JSON value is not a string");
  return *s;
}

void JsonValue::push_back(JsonValue v) {
  Array* items = std::get_if<Array>(&value_);
  CVMT_CHECK_MSG(items != nullptr, "JSON value is not an array");
  items->push_back(std::move(v));
}

std::size_t JsonValue::size() const {
  if (const Array* items = std::get_if<Array>(&value_)) return items->size();
  if (const Object* members = std::get_if<Object>(&value_))
    return members->size();
  CVMT_CHECK_MSG(false, "JSON value has no size");
  return 0;
}

const JsonValue& JsonValue::at(std::size_t i) const {
  const Array* items = std::get_if<Array>(&value_);
  CVMT_CHECK_MSG(items != nullptr, "JSON value is not an array");
  CVMT_CHECK_MSG(i < items->size(), "JSON array index out of range");
  return (*items)[i];
}

void JsonValue::reserve(std::size_t n) {
  if (Array* items = std::get_if<Array>(&value_)) {
    items->reserve(n);
    return;
  }
  Object* members = std::get_if<Object>(&value_);
  CVMT_CHECK_MSG(members != nullptr, "JSON value is not an array or object");
  members->reserve(n);
}

void JsonValue::set(std::string key, JsonValue v) {
  Object* members = std::get_if<Object>(&value_);
  CVMT_CHECK_MSG(members != nullptr, "JSON value is not an object");
  for (auto& [k, existing] : *members) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members->emplace_back(std::move(key), std::move(v));
}

const JsonValue& JsonValue::get(std::string_view key) const {
  const JsonValue* v = find(key);
  CVMT_CHECK_MSG(v != nullptr, "missing JSON key: " + std::string(key));
  return *v;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members())
    if (k == key) return &v;
  return nullptr;
}

const JsonValue::Object& JsonValue::members() const {
  const Object* members = std::get_if<Object>(&value_);
  CVMT_CHECK_MSG(members != nullptr, "JSON value is not an object");
  return *members;
}

// ------------------------------------------------------------------ writer

namespace {

void write_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  const char* run = s.data();  // start of the plain bytes not yet copied
  const char* const end = s.data() + s.size();
  for (const char* p = run; p != end; ++p) {
    const auto ch = static_cast<unsigned char>(*p);
    if (ch >= 0x20 && ch != '"' && ch != '\\') continue;
    out.append(run, static_cast<std::size_t>(p - run));
    run = p + 1;
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[ch >> 4],
                               kHex[ch & 0xF]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(run, static_cast<std::size_t>(end - run));
  out.push_back('"');
}

void write_int(std::string& out, std::int64_t i) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, i);
  out.append(buf, static_cast<std::size_t>(end - buf));
}

void write_double(std::string& out, double d) {
  // JSON has no Inf/NaN; experiments never produce them, but a crash here
  // would mask the real bug, so degrade to null.
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, d);
  CVMT_CHECK(ec == std::errc());
  out.append(buf, static_cast<std::size_t>(end - buf));
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void JsonValue::write_impl(std::string& out, int indent, int depth) const {
  switch (kind()) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool:
      out += *std::get_if<bool>(&value_) ? "true" : "false";
      return;
    case Kind::kInt:
      write_int(out, *std::get_if<std::int64_t>(&value_));
      return;
    case Kind::kDouble:
      write_double(out, *std::get_if<double>(&value_));
      return;
    case Kind::kString:
      write_escaped(out, *std::get_if<std::string>(&value_));
      return;
    case Kind::kArray: {
      const Array& items = *std::get_if<Array>(&value_);
      if (items.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i) out.push_back(',');
        newline_indent(out, indent, depth + 1);
        items[i].write_impl(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out.push_back(']');
      return;
    }
    case Kind::kObject: {
      const Object& members = *std::get_if<Object>(&value_);
      if (members.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i) out.push_back(',');
        newline_indent(out, indent, depth + 1);
        write_escaped(out, members[i].first);
        out.append(": ", indent < 0 ? 1 : 2);
        members[i].second.write_impl(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out.push_back('}');
      return;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  write_impl(out, indent, 0);
  return out;
}

void JsonValue::dump_to(std::string& out, int indent) const {
  write_impl(out, indent, 0);
}

void JsonValue::write(std::ostream& os, int indent) const {
  const std::string text = dump(indent);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

// ------------------------------------------------------------------ parser

/// Recursive descent over one document. The elements of the arrays and
/// the members of the objects being read wait on two stacks shared by
/// the whole parse; a closing bracket moves its container's entries into
/// one vector of their final size.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {
    // Room for a store record's deepest stack, so neither grows on one.
    elements_.reserve(32);
    members_.reserve(32);
  }

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
    const std::size_t base = members_.size();
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      JsonValue value = parse_value();
      // A repeated key keeps its first place and takes the last value,
      // as set() does.
      std::size_t i = base;
      while (i < members_.size() && members_[i].first != key) ++i;
      if (i < members_.size())
        members_[i].second = std::move(value);
      else
        members_.emplace_back(std::move(key), std::move(value));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    obj.value_.emplace<JsonValue::Object>(take(members_, base));
    return obj;
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    const std::size_t base = elements_.size();
    while (true) {
      elements_.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    arr.value_.emplace<JsonValue::Array>(take(elements_, base));
    return arr;
  }

  /// Moves the entries of `stack` from `base` on into a vector of their
  /// own and pops them.
  template <typename T>
  static std::vector<T> take(std::vector<T>& stack, std::size_t base) {
    const auto first = stack.begin() + static_cast<std::ptrdiff_t>(base);
    std::vector<T> out(std::make_move_iterator(first),
                       std::make_move_iterator(stack.end()));
    stack.erase(first, stack.end());
    return out;
  }

  /// The end of the run of plain bytes from `p`: the first '"' or '\\'
  /// at or after it, or the end of the text.
  [[nodiscard]] std::size_t plain_run_end(std::size_t p) const {
    while (p < text_.size() && text_[p] != '"' && text_[p] != '\\') ++p;
    return p;
  }

  std::string parse_string() {
    expect('"');
    std::size_t end = plain_run_end(pos_);
    std::string out(text_.substr(pos_, end - pos_));
    while (true) {
      pos_ = end;
      if (pos_ >= text_.size()) fail("unterminated string");
      if (text_[pos_++] == '"') return out;
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
        case 'u': append_unicode_escape(out); break;
        default: fail("bad escape character");
      }
      end = plain_run_end(pos_);
      out.append(text_.substr(pos_, end - pos_));
    }
  }

  /// The four hex digits after "\u", appended as UTF-8.
  void append_unicode_escape(std::string& out) {
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
    // UTF-8 encode (no surrogate-pair support; the experiment output is
    // ASCII).
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
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
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
  std::vector<JsonValue> elements_;  ///< of the open arrays, innermost last
  JsonValue::Object members_;        ///< of the open objects, innermost last
};

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
