// JsonValue: construction, deterministic writing, parsing, round trips
// and malformed-input rejection.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "support/check.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace cvmt {
namespace {

TEST(Json, WritesScalars) {
  EXPECT_EQ(JsonValue().dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(false).dump(), "false");
  EXPECT_EQ(JsonValue(std::int64_t{-42}).dump(), "-42");
  EXPECT_EQ(JsonValue(1.5).dump(), "1.5");
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
  EXPECT_EQ(JsonValue(std::numeric_limits<std::int64_t>::min()).dump(),
            "-9223372036854775808");
  EXPECT_EQ(JsonValue(std::numeric_limits<std::int64_t>::max()).dump(),
            "9223372036854775807");
  // JSON has no NaN or infinity: both are written as null.
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::quiet_NaN()).dump(),
            "null");
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).dump(),
            "null");
  EXPECT_EQ(JsonValue(-std::numeric_limits<double>::infinity()).dump(-1),
            "null");
}

TEST(Json, EscapesStrings) {
  EXPECT_EQ(JsonValue("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(JsonValue(std::string("\x01", 1)).dump(), "\"\\u0001\"");
  EXPECT_EQ(JsonValue("\r\t").dump(), "\"\\r\\t\"");
  EXPECT_EQ(JsonValue("\x1f").dump(), "\"\\u001f\"");
  // DEL and bytes from 0x80 up are written raw.
  EXPECT_EQ(JsonValue("a\x7f" "b").dump(), "\"a\x7f" "b\"");
  EXPECT_EQ(JsonValue("\xc3\xa9\xff").dump(), "\"\xc3\xa9\xff\"");
  // An object key is escaped like any other string.
  JsonValue obj = JsonValue::object();
  obj.set("k\"\n\x02", 1);
  EXPECT_EQ(obj.dump(-1), "{\"k\\\"\\n\\u0002\":1}");
  EXPECT_EQ(obj.dump(2), "{\n  \"k\\\"\\n\\u0002\": 1\n}");
}

TEST(Json, ObjectKeepsInsertionOrderAndOverwrites) {
  JsonValue obj = JsonValue::object();
  obj.set("z", 1);
  obj.set("a", 2);
  obj.set("z", 3);  // overwrite keeps position
  EXPECT_EQ(obj.dump(-1), "{\"z\":3,\"a\":2}");
  EXPECT_EQ(obj.get("z").as_int(), 3);
  EXPECT_EQ(obj.find("missing"), nullptr);
  EXPECT_THROW((void)obj.get("missing"), CheckError);
}

TEST(Json, PrettyPrintIsStable) {
  JsonValue obj = JsonValue::object();
  JsonValue arr = JsonValue::array();
  arr.push_back(1);
  arr.push_back("two");
  obj.set("xs", std::move(arr));
  EXPECT_EQ(obj.dump(2), "{\n  \"xs\": [\n    1,\n    \"two\"\n  ]\n}");
  // Empty containers stay on one line at any indent, nested or not.
  for (const int indent : {-1, 2}) {
    EXPECT_EQ(JsonValue::array().dump(indent), "[]");
    EXPECT_EQ(JsonValue::object().dump(indent), "{}");
  }
  JsonValue empties = JsonValue::array();
  empties.push_back(JsonValue::array());
  empties.push_back(JsonValue::object());
  EXPECT_EQ(empties.dump(-1), "[[],{}]");
  EXPECT_EQ(empties.dump(2), "[\n  [],\n  {}\n]");
}

TEST(Json, ParsesDocument) {
  const JsonValue v = JsonValue::parse(
      R"({"a": [1, 2.5, null, true], "b": {"c": "x\ny"}})");
  EXPECT_EQ(v.get("a").size(), 4u);
  EXPECT_EQ(v.get("a").at(0).as_int(), 1);
  EXPECT_DOUBLE_EQ(v.get("a").at(1).as_double(), 2.5);
  EXPECT_TRUE(v.get("a").at(2).is_null());
  EXPECT_TRUE(v.get("a").at(3).as_bool());
  EXPECT_EQ(v.get("b").get("c").as_string(), "x\ny");
}

TEST(Json, NumberRoundTripIsExact) {
  for (const double d : {0.0, -1.0, 3.141592653589793, 1e-300, 1.7e308,
                         0.1, 123456.789}) {
    const JsonValue v = JsonValue::parse(JsonValue(d).dump());
    EXPECT_DOUBLE_EQ(v.as_double(), d);
  }
  for (const std::int64_t i :
       {std::int64_t{0}, std::int64_t{-7},
        std::int64_t{9'007'199'254'740'993}}) {  // > 2^53: double loses it
    const JsonValue v = JsonValue::parse(JsonValue(i).dump());
    EXPECT_EQ(v.as_int(), i);
  }
}

TEST(Json, FullValueRoundTrip) {
  JsonValue obj = JsonValue::object();
  obj.set("name", "fig10");
  obj.set("ok", true);
  JsonValue rows = JsonValue::array();
  JsonValue row = JsonValue::array();
  row.push_back("LLLL");
  row.push_back(1.25);
  row.push_back(JsonValue());
  rows.push_back(std::move(row));
  obj.set("rows", std::move(rows));
  const std::string text = obj.dump();
  EXPECT_EQ(JsonValue::parse(text).dump(), text);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW((void)JsonValue::parse(""), CheckError);
  EXPECT_THROW((void)JsonValue::parse("{"), CheckError);
  EXPECT_THROW((void)JsonValue::parse("[1,]"), CheckError);
  EXPECT_THROW((void)JsonValue::parse("{\"a\" 1}"), CheckError);
  EXPECT_THROW((void)JsonValue::parse("tru"), CheckError);
  EXPECT_THROW((void)JsonValue::parse("\"unterminated"), CheckError);
  EXPECT_THROW((void)JsonValue::parse("1 2"), CheckError);
  EXPECT_THROW((void)JsonValue::parse("-"), CheckError);
}

// A parse error is an input error: it names the byte offset and carries
// no source path.
TEST(Json, ParseErrorsNameTheOffsetWithoutASourcePath) {
  const struct {
    const char* text;
    const char* needle;
  } cases[] = {
      {"{\"id\":1,", "JSON parse error at offset 8"},
      {"[1,]", "JSON parse error at offset 3"},
      {"[1] x", "trailing characters after JSON document at offset 4"},
  };
  for (const auto& c : cases) {
    try {
      (void)JsonValue::parse(c.text);
      ADD_FAILURE() << "no error for " << c.text;
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.needle), std::string::npos) << what;
      EXPECT_EQ(what.find("CVMT_CHECK"), std::string::npos) << what;
      EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
    }
  }
}

// Every parse error, word for word: the message and the byte offset it
// names are part of what a serve client or a store reader sees.
TEST(Json, ParseErrorTextsAndOffsetsArePinned) {
  const struct {
    const char* text;
    const char* error;
  } cases[] = {
      {"", "JSON parse error at offset 0: unexpected end of input"},
      {" ", "JSON parse error at offset 1: unexpected end of input"},
      {"}", "JSON parse error at offset 0: bad number"},
      {"[1 2]", "JSON parse error at offset 4: expected ',' or ']'"},
      {"{\"a\" 1}", "JSON parse error at offset 5: expected ':'"},
      {"{\"a\":1,}", "JSON parse error at offset 7: expected '\"'"},
      {"{\"a\":1 \"b\":2}",
       "JSON parse error at offset 8: expected ',' or '}'"},
      {"nulx", "JSON parse error at offset 0: bad literal"},
      {"\"abc", "JSON parse error at offset 4: unterminated string"},
      {"\"a\\", "JSON parse error at offset 3: unterminated escape"},
      {"\"a\\q\"", "JSON parse error at offset 4: bad escape character"},
      {"\"\\u12\"", "JSON parse error at offset 3: truncated \\u escape"},
      {"\"\\u12G4\"", "JSON parse error at offset 6: bad \\u escape"},
      {"--1", "JSON parse error at offset 3: bad number"},
      {"+1", "JSON parse error at offset 2: bad number"},
      {"1.2.3", "JSON parse error at offset 5: bad number"},
      {"1e999", "JSON parse error at offset 5: bad number"},
      {"[\"a\",", "JSON parse error at offset 5: unexpected end of input"},
      {"42abc", "trailing characters after JSON document at offset 2"},
      {"\"ok\"\"extra\"",
       "trailing characters after JSON document at offset 4"},
  };
  for (const auto& c : cases) {
    try {
      (void)JsonValue::parse(c.text);
      ADD_FAILURE() << "no error for " << c.text;
    } catch (const CheckError& e) {
      EXPECT_STREQ(e.what(), c.error) << c.text;
    }
  }
}

// A key that repeats keeps the place of its first occurrence and the
// value of its last, as set() does.
TEST(Json, ParsedDuplicateKeyKeepsFirstPositionAndLastValue) {
  const JsonValue v = JsonValue::parse(R"({"a":1,"b":2,"a":{"c":3}})");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.members()[0].first, "a");
  EXPECT_EQ(v.get("a").get("c").as_int(), 3);
  EXPECT_EQ(v.dump(-1), R"({"a":{"c":3},"b":2})");
}

TEST(Json, TypedAccessorsCheckKind) {
  EXPECT_THROW((void)JsonValue("s").as_int(), CheckError);
  EXPECT_THROW((void)JsonValue(1.0).as_string(), CheckError);
  EXPECT_THROW((void)JsonValue().as_bool(), CheckError);
  // as_double accepts integers (JSON has one number type).
  EXPECT_DOUBLE_EQ(JsonValue(std::int64_t{4}).as_double(), 4.0);
}

TEST(Json, DeepNestingRoundTrips) {
  // 600 nested arrays around one integer: both the writer and the
  // recursive-descent parser must survive deep (but sane) documents.
  constexpr int kDepth = 600;
  JsonValue v(std::int64_t{7});
  for (int i = 0; i < kDepth; ++i) {
    JsonValue arr = JsonValue::array();
    arr.push_back(std::move(v));
    v = std::move(arr);
  }
  const std::string text = v.dump(-1);
  EXPECT_EQ(text.size(), 2 * kDepth + 1u);  // kDepth '['s + "7" + ']'s
  const JsonValue parsed = JsonValue::parse(text);
  const JsonValue* inner = &parsed;
  for (int i = 0; i < kDepth; ++i) {
    ASSERT_EQ(inner->size(), 1u);
    inner = &inner->at(0);
  }
  EXPECT_EQ(inner->as_int(), 7);
  EXPECT_EQ(parsed.dump(-1), text);
}

TEST(Json, NestingCapAcceptsTheCapAndRejectsOneMore) {
  const auto arrays = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW((void)JsonValue::parse(arrays(JsonValue::kMaxParseDepth)));
  try {
    (void)JsonValue::parse(arrays(JsonValue::kMaxParseDepth + 1));
    ADD_FAILURE() << "nesting past the cap parsed";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 1024 levels"),
              std::string::npos)
        << e.what();
  }
  // Objects count toward the same cap.
  std::string objects;
  for (int i = 0; i <= JsonValue::kMaxParseDepth; ++i) objects += "{\"k\":";
  objects += "1";
  objects.append(JsonValue::kMaxParseDepth + 1, '}');
  EXPECT_THROW((void)JsonValue::parse(objects), CheckError);
  // An unclosed run far past the cap fails at the cap, not on the stack.
  EXPECT_THROW((void)JsonValue::parse(std::string(50'000, '[')), CheckError);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  // One-, two- and three-byte UTF-8 targets.
  EXPECT_EQ(JsonValue::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(JsonValue::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
  EXPECT_EQ(JsonValue::parse("\"\\u20AC\"").as_string(),
            "\xe2\x82\xac");  // upper-case hex digits accepted
  EXPECT_EQ(JsonValue::parse("\"a\\u0062c\"").as_string(), "abc");
}

TEST(Json, RejectsMalformedUnicodeEscapes) {
  EXPECT_THROW((void)JsonValue::parse("\"\\u12\""), CheckError);
  EXPECT_THROW((void)JsonValue::parse("\"\\u12G4\""), CheckError);
  EXPECT_THROW((void)JsonValue::parse("\"\\u123"), CheckError);
  EXPECT_THROW((void)JsonValue::parse("\"\\x41\""), CheckError);
}

TEST(Json, LargeU64RoundTripsBitExactly) {
  // JsonValue stores integers as int64; u64 construction is a modular
  // cast, so values above 2^63 print negative but survive a
  // write-parse-cast round trip bit-exactly. Seeds and counters rely on
  // this (fuzz-case os_seed/stream_seed_base are full-range u64s).
  for (const std::uint64_t u :
       {std::uint64_t{0}, std::uint64_t{1} << 53,
        std::uint64_t{0x7fffffffffffffff}, std::uint64_t{1} << 63,
        std::uint64_t{0xdeadbeefcafebabe},
        std::uint64_t{0xffffffffffffffff}}) {
    const JsonValue v = JsonValue::parse(JsonValue(u).dump());
    EXPECT_EQ(static_cast<std::uint64_t>(v.as_int()), u);
  }
}

TEST(Json, IntegerOverflowFallsBackToDouble) {
  // A literal beyond int64 range parses as a (lossy) double rather than
  // failing — JSON has one number type.
  const JsonValue v = JsonValue::parse("123456789012345678901234567890");
  EXPECT_EQ(v.kind(), JsonValue::Kind::kDouble);
  EXPECT_DOUBLE_EQ(v.as_double(), 1.2345678901234568e29);
}

TEST(Json, RejectsTrailingGarbage) {
  EXPECT_THROW((void)JsonValue::parse("{} {}"), CheckError);
  EXPECT_THROW((void)JsonValue::parse("[1,2] x"), CheckError);
  EXPECT_THROW((void)JsonValue::parse("null,"), CheckError);
  EXPECT_THROW((void)JsonValue::parse("42abc"), CheckError);
  EXPECT_THROW((void)JsonValue::parse("\"ok\"\"extra\""), CheckError);
  // Trailing whitespace is not garbage.
  EXPECT_EQ(JsonValue::parse("7 \n\t ").as_int(), 7);
}

// --- the writer's round trip over generated documents ---------------------

/// One byte from each class the writer treats differently: plain ASCII,
/// the two escaped characters, the three named control escapes, the other
/// control characters (\u00XX), DEL and the bytes from 0x80 up (raw).
char random_byte(Xoshiro256& rng) {
  switch (rng.next_below(8)) {
    case 0: return '"';
    case 1: return '\\';
    case 2: return "\n\r\t"[rng.next_below(3)];
    case 3: return static_cast<char>(rng.next_below(0x20));
    case 4: return '\x7f';
    case 5: return static_cast<char>(0x80 + rng.next_below(0x80));
    default: return static_cast<char>(' ' + rng.next_below(95));
  }
}

std::string random_string(Xoshiro256& rng) {
  std::string s(rng.next_below(12), ' ');
  for (char& c : s) c = random_byte(rng);
  return s;
}

double random_double(Xoshiro256& rng) {
  double d = 0.0;
  switch (rng.next_below(4)) {
    case 0: {  // any bit pattern: subnormals, huge values, NaN, infinity
      const std::uint64_t bits = rng.next();
      std::memcpy(&d, &bits, sizeof d);
      break;
    }
    case 1: d = rng.next_double() * 1000.0 - 500.0; break;
    case 2: d = static_cast<double>(rng.next_below(100)); break;
    default: d = rng.next_double() * 1e20; break;
  }
  // -0.0 is written "-0", which reads back as the integer 0: the one
  // double whose text does not survive a round trip.
  return d == 0.0 ? 0.0 : d;
}

/// A document of every kind, nested at most 8 levels deep.
JsonValue random_value(Xoshiro256& rng, int depth) {
  switch (rng.next_below(depth < 8 ? 7 : 5)) {
    case 0: return JsonValue();
    case 1: return JsonValue(rng.next_below(2) == 1);
    case 2: return JsonValue(static_cast<std::int64_t>(rng.next()));
    case 3: return JsonValue(random_double(rng));
    case 4: return JsonValue(random_string(rng));
    case 5: {
      JsonValue arr = JsonValue::array();
      for (std::uint64_t n = rng.next_below(5); n > 0; --n)
        arr.push_back(random_value(rng, depth + 1));
      return arr;
    }
    default: {
      JsonValue obj = JsonValue::object();
      for (std::uint64_t n = rng.next_below(5); n > 0; --n)
        obj.set(random_string(rng), random_value(rng, depth + 1));
      return obj;
    }
  }
}

TEST(Json, GeneratedDocumentsReadBackToTheSameText) {
  Xoshiro256 rng(31);
  for (int doc = 0; doc < 2000; ++doc) {
    const JsonValue v = random_value(rng, 0);
    for (const int indent : {-1, 2}) {
      const std::string text = v.dump(indent);
      EXPECT_EQ(JsonValue::parse(text).dump(indent), text)
          << "document " << doc << " at indent " << indent;
    }
  }
}

}  // namespace
}  // namespace cvmt
