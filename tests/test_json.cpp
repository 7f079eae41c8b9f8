// Unit tests for the JSON substrate (descriptor transport format).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "json/json.hpp"

namespace json = cnn2fpga::json;

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_EQ(json::parse("true").as_bool(), true);
  EXPECT_EQ(json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(json::parse("3.25").as_double(), 3.25);
  EXPECT_EQ(json::parse("-17").as_int(), -17);
  EXPECT_EQ(json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, NumbersEdgeCases) {
  EXPECT_DOUBLE_EQ(json::parse("0").as_double(), 0.0);
  EXPECT_DOUBLE_EQ(json::parse("-0.5").as_double(), -0.5);
  EXPECT_DOUBLE_EQ(json::parse("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(json::parse("2.5E-2").as_double(), 0.025);
  EXPECT_THROW(json::parse("01"), json::JsonError);     // leading zero
  EXPECT_THROW(json::parse("1."), json::JsonError);     // digit after point
  EXPECT_THROW(json::parse("1e"), json::JsonError);     // exponent digits
  EXPECT_THROW(json::parse("+1"), json::JsonError);     // leading plus
  EXPECT_THROW(json::parse("NaN"), json::JsonError);
}

TEST(JsonParse, StringsAndEscapes) {
  EXPECT_EQ(json::parse(R"("a\"b")").as_string(), "a\"b");
  EXPECT_EQ(json::parse(R"("tab\there")").as_string(), "tab\there");
  EXPECT_EQ(json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(json::parse(R"("é")").as_string(), "\xc3\xa9");          // e-acute UTF-8
  EXPECT_EQ(json::parse(R"("😀")").as_string(), "\xf0\x9f\x98\x80");  // emoji pair
  EXPECT_THROW(json::parse(R"("\ud83d")"), json::JsonError);   // unpaired surrogate
  EXPECT_THROW(json::parse(R"("\x41")"), json::JsonError);     // bad escape
  EXPECT_THROW(json::parse("\"raw\ncontrol\""), json::JsonError);
}

TEST(JsonParse, ControlCharacterRejectedAtEveryOffsetOfALongString) {
  // Plain bytes are copied a run at a time; every raw control character must
  // still stop the run and be rejected at its own column.
  constexpr std::size_t kLength = 300;
  const std::string plain(kLength, 'a');
  ASSERT_EQ(json::parse('"' + plain + '"').as_string(), plain);
  for (std::size_t offset = 0; offset < kLength; ++offset) {
    std::string body = plain;
    body[offset] = static_cast<char>(offset % 0x20);  // 0x00 .. 0x1f
    try {
      json::parse('"' + body + '"');
      FAIL() << "control byte accepted at offset " << offset;
    } catch (const json::JsonError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("raw control character"), std::string::npos) << what;
      // Columns are 1-based and the opening quote is column 1.
      const std::string where = "line 1, column " + std::to_string(offset + 2) + ":";
      EXPECT_NE(what.find(where), std::string::npos) << "offset " << offset << ": " << what;
    }
  }
}

TEST(JsonParse, EscapesAtTheEdgesOfPlainRuns) {
  const std::string run(1000, 'x');
  EXPECT_EQ(json::parse(R"("\n)" + run + R"(")").as_string(), "\n" + run);
  EXPECT_EQ(json::parse(R"(")" + run + R"(\n")").as_string(), run + "\n");
  EXPECT_EQ(json::parse(R"("\"\\\/")").as_string(), "\"\\/");        // escapes only
  EXPECT_EQ(json::parse(R"("a\tbAc")").as_string(), "a\tbAc");  // one-byte runs
  EXPECT_EQ(json::parse(R"(")" + run + R"(é)" + run + R"(")").as_string(),
            run + "\xc3\xa9" + run);
  EXPECT_EQ(json::parse("\"caf\xc3\xa9 \xf0\x9f\x98\x80\"").as_string(),
            "caf\xc3\xa9 \xf0\x9f\x98\x80");  // raw UTF-8 stays in the run
  EXPECT_EQ(json::parse(R"("")").as_string(), "");
  EXPECT_THROW(json::parse(R"(")" + run + R"(\q")"), json::JsonError);
}

TEST(JsonParse, UnterminatedLongStringIsRejected) {
  const std::string run(100000, 'y');
  try {
    json::parse('"' + run);
    FAIL() << "unterminated string accepted";
  } catch (const json::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("unexpected end of input"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(json::parse('"' + run + '\\'), json::JsonError);
  EXPECT_THROW(json::parse('"' + run + "\\u00"), json::JsonError);
  EXPECT_THROW(json::parse("{\"k\": \"" + run), json::JsonError);
}

TEST(JsonParse, ArraysAndObjects) {
  const auto v = json::parse(R"({"a": [1, 2, 3], "b": {"c": true}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_EQ(v.at("a").as_array()[2].as_int(), 3);
  EXPECT_TRUE(v.at("b").at("c").as_bool());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), json::JsonError);
}

TEST(JsonParse, WhitespaceTolerant) {
  const auto v = json::parse(" \n\t{ \"k\" :\r\n [ ] } ");
  EXPECT_TRUE(v.at("k").as_array().empty());
}

TEST(JsonParse, Malformed) {
  EXPECT_THROW(json::parse(""), json::JsonError);
  EXPECT_THROW(json::parse("{"), json::JsonError);
  EXPECT_THROW(json::parse("[1,]"), json::JsonError);
  EXPECT_THROW(json::parse("{\"a\":1,}"), json::JsonError);
  EXPECT_THROW(json::parse("{\"a\" 1}"), json::JsonError);
  EXPECT_THROW(json::parse("{1: 2}"), json::JsonError);
  EXPECT_THROW(json::parse("[1] trailing"), json::JsonError);
}

TEST(JsonParse, ErrorMessagesCarryPosition) {
  try {
    json::parse("{\n  \"a\": bogus\n}");
    FAIL() << "expected JsonError";
  } catch (const json::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(JsonParse, DepthLimit) {
  std::string deep;
  for (int i = 0; i < 400; ++i) deep += "[";
  for (int i = 0; i < 400; ++i) deep += "]";
  EXPECT_THROW(json::parse(deep), json::JsonError);
  // 100 levels is fine.
  std::string ok;
  for (int i = 0; i < 100; ++i) ok += "[";
  for (int i = 0; i < 100; ++i) ok += "]";
  EXPECT_NO_THROW(json::parse(ok));
}

TEST(JsonDump, RoundTripsCompact) {
  const std::string text =
      R"({"arr":[1,2.5,"s",null,true],"num":-3,"obj":{"nested":[{"x":1}]}})";
  const auto v = json::parse(text);
  EXPECT_EQ(json::parse(v.dump()), v);
  EXPECT_EQ(v.dump(), text);  // std::map keys already sorted in input
}

TEST(JsonDump, PrettyRoundTrips) {
  const auto v = json::parse(R"({"a":[1,2],"b":{"c":"x"}})");
  const std::string pretty = v.dump(/*pretty=*/true);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(json::parse(pretty), v);
}

TEST(JsonDump, EscapesControlCharacters) {
  json::Value v(std::string("a\nb\x01"));
  const std::string out = v.dump();
  EXPECT_EQ(out, "\"a\\nb\\u0001\"");
  EXPECT_EQ(json::parse(out), v);
}

TEST(JsonDump, IntegersStayIntegral) {
  EXPECT_EQ(json::Value(42).dump(), "42");
  EXPECT_EQ(json::Value(-1.0).dump(), "-1");
  EXPECT_EQ(json::Value(0.5).dump(), "0.5");
}

TEST(JsonDump, DoubleRoundTripExact) {
  const double tricky = 0.1 + 0.2;
  json::Value v(tricky);
  EXPECT_DOUBLE_EQ(json::parse(v.dump()).as_double(), tricky);
}

TEST(JsonDump, NonFiniteBecomesNull) {
  EXPECT_EQ(json::Value(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(json::Value(std::nan("")).dump(), "null");
}

TEST(JsonValue, TypedAccessErrors) {
  const json::Value v(1.5);
  EXPECT_THROW(v.as_string(), json::JsonError);
  EXPECT_THROW(v.as_array(), json::JsonError);
  EXPECT_THROW(v.as_bool(), json::JsonError);
  EXPECT_THROW(v.as_int(), json::JsonError);  // non-integral
  EXPECT_NO_THROW(json::Value(2.0).as_int());
}

TEST(JsonValue, TypedLookupsWithDefaults) {
  const auto v = json::parse(R"({"i": 3, "d": 1.5, "b": true, "s": "x"})");
  EXPECT_EQ(v.get_int("i", 0), 3);
  EXPECT_EQ(v.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(v.get_double("d", 0), 1.5);
  EXPECT_TRUE(v.get_bool("b", false));
  EXPECT_EQ(v.get_string("s", ""), "x");
  EXPECT_EQ(v.get_string("i", "fallback"), "fallback");  // wrong type -> default
}

TEST(JsonValue, MutableObjectBuilding) {
  json::Value v;  // null
  v["a"] = json::Value(1);
  v["b"]["c"] = json::Value("deep");
  EXPECT_EQ(v.at("a").as_int(), 1);
  EXPECT_EQ(v.at("b").at("c").as_string(), "deep");
}
