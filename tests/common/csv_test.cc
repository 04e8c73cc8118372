#include "common/csv.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace fairgen {
namespace {

TEST(TableTest, CsvRendering) {
  Table t({"model", "score"});
  t.AddRow({"ER", "0.5"});
  t.AddRow({"FairGen", "0.1"});
  EXPECT_EQ(t.ToCsv(), "model,score\nER,0.5\nFairGen,0.1\n");
}

TEST(TableTest, DoubleRowFormatting) {
  Table t({"model", "a", "b"});
  t.AddRow("x", {1.0, 0.25}, 2);
  EXPECT_EQ(t.ToCsv(), "model,a,b\nx,1.00,0.25\n");
}

TEST(TableTest, Dimensions) {
  Table t({"a", "b"});
  EXPECT_EQ(t.num_cols(), 2u);
  EXPECT_EQ(t.num_rows(), 0u);
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, AsciiAlignsColumns) {
  Table t({"name", "v"});
  t.AddRow({"longname", "1"});
  t.AddRow({"s", "22"});
  std::string ascii = t.ToAscii();
  std::istringstream lines(ascii);
  std::string header;
  std::string rule;
  std::string row1;
  std::string row2;
  std::getline(lines, header);
  std::getline(lines, rule);
  std::getline(lines, row1);
  std::getline(lines, row2);
  // The value column starts at the same offset in every row.
  EXPECT_EQ(row1.find('1'), row2.find("22"));
  EXPECT_NE(rule.find("---"), std::string::npos);
}

TEST(TableTest, WriteCsvRoundTrips) {
  Table t({"k", "v"});
  t.AddRow({"x", "1"});
  std::string path = testing::TempDir() + "/fairgen_table_test.csv";
  ASSERT_TRUE(t.WriteCsv(path).ok());
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), t.ToCsv());
  std::remove(path.c_str());
}

TEST(TableTest, WriteCsvToBadPathFails) {
  Table t({"k"});
  Status s = t.WriteCsv("/nonexistent_dir_xyz/file.csv");
  EXPECT_TRUE(s.IsIOError());
}

TEST(TableDeathTest, MismatchedRowAborts) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only-one"}), "arity");
}

}  // namespace
}  // namespace fairgen
