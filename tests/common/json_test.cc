#include "common/json.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace fairgen::json {
namespace {

TEST(JsonParseTest, Scalars) {
  auto v = Parse("null");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());

  v = Parse("true");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_bool());
  EXPECT_TRUE(v->AsBool());

  v = Parse("false");
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->AsBool());

  v = Parse("  42  ");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_number());
  EXPECT_EQ(v->AsDouble(), 42.0);
}

TEST(JsonParseTest, Numbers) {
  auto v = Parse("-0.5");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsDouble(), -0.5);

  v = Parse("1e3");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsDouble(), 1000.0);

  v = Parse("2.5E-2");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsDouble(), 0.025);

  // %.17g round-trip: the payload the metrics registry writes must come
  // back bit-exact.
  v = Parse("0.10000000000000001");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsDouble(), 0.1);
}

TEST(JsonParseTest, Strings) {
  auto v = Parse("\"plain\"");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_string());
  EXPECT_EQ(v->AsString(), "plain");

  v = Parse(R"("a\"b\\c\/d\n\t\r\b\f")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "a\"b\\c/d\n\t\r\b\f");
}

TEST(JsonParseTest, UnicodeEscapes) {
  auto v = Parse(R"("\u0041\u00e9")");  // "A" + e-acute as UTF-8
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "A\xc3\xa9");

  // The JsonEscape control-character form must round-trip.
  v = Parse(R"("\u0001")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), std::string("\x01", 1));
}

TEST(JsonParseTest, ArraysAndObjects) {
  auto v = Parse(R"({"a": [1, 2, 3], "b": {"nested": true}, "c": null})");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_object());
  const Value* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->AsArray().size(), 3u);
  EXPECT_EQ(a->AsArray()[1].AsDouble(), 2.0);
  const Value* b = v->Find("b");
  ASSERT_NE(b, nullptr);
  const Value* nested = b->Find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_TRUE(nested->AsBool());
  EXPECT_EQ(v->Find("missing"), nullptr);

  auto empty = Parse("[]");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->AsArray().empty());
  empty = Parse("{}");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->AsObject().empty());
}

TEST(JsonParseTest, ConvenienceAccessors) {
  auto v = Parse(R"({"median_ms": 1.5, "scenario": "walks"})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->GetDouble("median_ms", -1.0), 1.5);
  EXPECT_EQ(v->GetDouble("absent", -1.0), -1.0);
  EXPECT_EQ(v->GetDouble("scenario", -1.0), -1.0) << "type mismatch";
  EXPECT_EQ(v->GetString("scenario", "x"), "walks");
  EXPECT_EQ(v->GetString("median_ms", "x"), "x") << "type mismatch";
}

TEST(JsonParseTest, MalformedInputsReportByteOffsets) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\" 1}", "tru", "1..2", "-", "\"unterm",
        "{\"a\": 1,}", "[1 2]", "nul", "\"bad\\q\""}) {
    auto v = Parse(bad);
    EXPECT_FALSE(v.ok()) << "accepted malformed input: " << bad;
    EXPECT_NE(v.status().ToString().find("at byte"), std::string::npos)
        << "no byte offset in: " << v.status().ToString();
  }
}

TEST(JsonParseTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(Parse("{} x").ok());
  EXPECT_FALSE(Parse("1 2").ok());
  EXPECT_TRUE(Parse("{} \n ").ok()) << "trailing whitespace is fine";
}

TEST(JsonParseTest, CapsNestingDepth) {
  std::string deep;
  for (int i = 0; i < 300; ++i) deep.push_back('[');
  for (int i = 0; i < 300; ++i) deep.push_back(']');
  EXPECT_FALSE(Parse(deep).ok());

  std::string ok;
  for (int i = 0; i < 50; ++i) ok.push_back('[');
  for (int i = 0; i < 50; ++i) ok.push_back(']');
  EXPECT_TRUE(Parse(ok).ok());
}

TEST(JsonParseFileTest, ReadsFileAndFlagsMissingOne) {
  std::string path = testing::TempDir() + "/fairgen_json_test.json";
  {
    std::ofstream out(path);
    out << R"({"schema_version": 1})";
  }
  auto v = ParseFile(path);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->GetDouble("schema_version"), 1.0);
  std::remove(path.c_str());

  EXPECT_FALSE(ParseFile(path).ok());
}

}  // namespace
}  // namespace fairgen::json
