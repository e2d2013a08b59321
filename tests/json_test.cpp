// JsonValue: construction, deterministic writing, parsing, round trips
// and malformed-input rejection.
#include <gtest/gtest.h>

#include <string>

#include "support/check.hpp"
#include "support/json.hpp"

namespace cvmt {
namespace {

TEST(Json, WritesScalars) {
  EXPECT_EQ(JsonValue().dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(false).dump(), "false");
  EXPECT_EQ(JsonValue(std::int64_t{-42}).dump(), "-42");
  EXPECT_EQ(JsonValue(1.5).dump(), "1.5");
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
}

TEST(Json, EscapesStrings) {
  EXPECT_EQ(JsonValue("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(JsonValue(std::string("\x01", 1)).dump(), "\"\\u0001\"");
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

}  // namespace
}  // namespace cvmt
