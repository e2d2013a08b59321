// Minimal JSON value: enough for machine-readable experiment output, the
// result store's records and the serve protocol. Object keys keep
// insertion order so output is deterministic (the golden-stability tests
// compare bytes).
//
// A value is one std::variant alternative (40 bytes with libstdc++), so a
// move, copy or destroy touches only the kind it holds. The writer
// appends to one std::string: runs of plain characters go in bulk, and
// integers and doubles go through std::to_chars, doubles in their
// shortest round-trip form, so a parse(write(v)) round trip reproduces
// every numeric value exactly. The parser scans string runs in bulk and
// builds each array or object in one allocation of its final size.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
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
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;  // null
  JsonValue(std::nullptr_t) {}
  JsonValue(bool b) : value_(std::in_place_type<bool>, b) {}
  JsonValue(std::int64_t i) : value_(std::in_place_type<std::int64_t>, i) {}
  JsonValue(int i) : JsonValue(static_cast<std::int64_t>(i)) {}
  JsonValue(std::uint64_t u) : JsonValue(static_cast<std::int64_t>(u)) {}
  JsonValue(double d) : value_(std::in_place_type<double>, d) {}
  JsonValue(std::string s)
      : value_(std::in_place_type<std::string>, std::move(s)) {}
  JsonValue(std::string_view s)
      : value_(std::in_place_type<std::string>, s) {}
  JsonValue(const char* s) : value_(std::in_place_type<std::string>, s) {}

  [[nodiscard]] static JsonValue array();
  [[nodiscard]] static JsonValue object();

  [[nodiscard]] Kind kind() const {
    return static_cast<Kind>(value_.index());
  }
  [[nodiscard]] bool is_null() const { return kind() == Kind::kNull; }

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

  /// Makes room for `n` elements of an array or members of an object, for
  /// a builder that knows its size; CVMT_CHECK on any other kind.
  void reserve(std::size_t n);

  // Object access. set() appends or overwrites; get() throws CheckError on
  // a missing key, find() returns nullptr instead.
  void set(std::string key, JsonValue v);
  [[nodiscard]] const JsonValue& get(std::string_view key) const;
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  [[nodiscard]] const Object& members() const;

  /// Serializes. `indent` < 0 renders compact (single line); otherwise
  /// pretty-prints with `indent` spaces per nesting level. dump_to
  /// appends the text to `out`, and write() writes it to `os` in one call.
  [[nodiscard]] std::string dump(int indent = 2) const;
  void dump_to(std::string& out, int indent = 2) const;
  void write(std::ostream& os, int indent = 2) const;

  /// Deepest array/object nesting parse() accepts. Far above any
  /// document the repo writes; it bounds the recursive parser's stack on
  /// untrusted input such as a serve request line.
  static constexpr int kMaxParseDepth = 1024;

  /// Parses a complete JSON document (trailing non-whitespace rejected).
  /// Throws CheckError with position information on malformed input,
  /// including nesting deeper than kMaxParseDepth.
  [[nodiscard]] static JsonValue parse(std::string_view text);

 private:
  friend class JsonParser;  // fills arrays and objects in place

  void write_impl(std::string& out, int indent, int depth) const;

  /// Alternatives in Kind order: index() is the kind.
  std::variant<std::monostate, bool, std::int64_t, double, std::string,
               Array, Object>
      value_;
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
