// Minimal JSON value: enough for machine-readable experiment output and
// for reading it back in tests. Object keys keep insertion order so output
// is deterministic (the golden-stability tests compare bytes).
//
// Writing uses shortest-round-trip formatting for doubles (std::to_chars),
// so a parse(write(v)) round trip reproduces every numeric value exactly.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cvmt {

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  JsonValue() = default;  // null
  JsonValue(std::nullptr_t) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  JsonValue(std::int64_t i) : kind_(Kind::kInt), int_(i) {}
  JsonValue(int i) : JsonValue(static_cast<std::int64_t>(i)) {}
  JsonValue(std::uint64_t u)
      : kind_(Kind::kInt), int_(static_cast<std::int64_t>(u)) {}
  JsonValue(double d) : kind_(Kind::kDouble), double_(d) {}
  JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  JsonValue(std::string_view s) : JsonValue(std::string(s)) {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}

  [[nodiscard]] static JsonValue array();
  [[nodiscard]] static JsonValue object();

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }

  /// Typed accessors; CVMT_CHECK on kind mismatch (as_double also accepts
  /// kInt, mirroring JSON's single number type).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;

  // Array access.
  void push_back(JsonValue v);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const JsonValue& at(std::size_t i) const;

  // Object access. set() appends or overwrites; get() throws CheckError on
  // a missing key, find() returns nullptr instead.
  void set(std::string key, JsonValue v);
  [[nodiscard]] const JsonValue& get(std::string_view key) const;
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
  members() const;

  /// Serializes. `indent` < 0 renders compact (single line); otherwise
  /// pretty-prints with `indent` spaces per nesting level.
  void write(std::ostream& os, int indent = 2) const;
  [[nodiscard]] std::string dump(int indent = 2) const;

  /// Deepest array/object nesting parse() accepts. Far above any
  /// document the repo writes; it bounds the recursive parser's stack on
  /// untrusted input such as a serve request line.
  static constexpr int kMaxParseDepth = 1024;

  /// Parses a complete JSON document (trailing non-whitespace rejected).
  /// Throws CheckError with position information on malformed input,
  /// including nesting deeper than kMaxParseDepth.
  [[nodiscard]] static JsonValue parse(std::string_view text);

 private:
  void write_impl(std::ostream& os, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

// Typed readers for one member of a JSON object that holds untrusted
// input: a serve request, a knob object, a store manifest. Each returns
// `fallback` when `key` is absent and throws CheckError, with a message
// naming the field, when the value has the wrong type or range.

/// An integer in [min, max]. JSON integers are int64, so `max` defaults
/// to the largest one; a bigger literal parses as a double and is
/// rejected like any other non-integer.
[[nodiscard]] std::uint64_t get_u64_field(
    const JsonValue& obj, std::string_view key, std::uint64_t fallback,
    std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::int64_t>::max());
[[nodiscard]] std::string get_string_field(const JsonValue& obj,
                                           std::string_view key,
                                           std::string fallback = {});
[[nodiscard]] bool get_bool_field(const JsonValue& obj, std::string_view key,
                                  bool fallback);
/// An array of strings; empty when absent.
[[nodiscard]] std::vector<std::string> get_string_array(
    const JsonValue& obj, std::string_view key);
/// Throws unless every member of `obj` is one of `known`; `where` names
/// the object in the message.
void reject_unknown_keys(const JsonValue& obj, std::string_view where,
                         std::initializer_list<std::string_view> known);

}  // namespace cvmt
