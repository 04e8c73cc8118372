#include "common/events.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"

namespace fairgen::events {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override { Journal::Global().ResetForTest(); }
  void TearDown() override { Journal::Global().ResetForTest(); }

  // Cleared first: the journal appends, so a file left by an earlier
  // process with the same pid would leak into this test's records.
  std::string TempPath(const std::string& name) {
    std::string path = testing::TempDir() + "/fairgen_events_" + name +
                       "_" + std::to_string(::getpid()) + ".jsonl";
    std::filesystem::remove_all(path);
    return path;
  }
};

TEST(EventTypeTest, WireNamesAreStable) {
  EXPECT_STREQ(TypeName(Type::kStage), "stage");
  EXPECT_STREQ(TypeName(Type::kCheckpoint), "checkpoint");
  EXPECT_STREQ(TypeName(Type::kAlert), "alert");
  EXPECT_STREQ(TypeName(Type::kProbe), "probe");
  EXPECT_STREQ(TypeName(Type::kConfig), "config");
  EXPECT_STREQ(TypeName(Type::kCrash), "crash");
}

TEST(EventJsonTest, MinimalRecordHasRequiredKeysOnly) {
  Event event;
  event.type = Type::kStage;
  event.name = "fit";
  event.seq = 3;
  event.unix_ms = 1234;
  const std::string line = ToJsonLine(event);
  auto doc = json::Parse(line);
  ASSERT_TRUE(doc.ok()) << line;
  EXPECT_EQ(doc->GetDouble("seq", 0), 3.0);
  EXPECT_EQ(doc->GetDouble("unix_ms", 0), 1234.0);
  EXPECT_EQ(doc->GetString("type"), "stage");
  EXPECT_EQ(doc->GetString("name"), "fit");
  // Optional keys absent when empty / epoch < 0; fields always present.
  EXPECT_EQ(doc->Find("severity"), nullptr);
  EXPECT_EQ(doc->Find("message"), nullptr);
  EXPECT_EQ(doc->Find("epoch"), nullptr);
  ASSERT_NE(doc->Find("fields"), nullptr);
  EXPECT_TRUE(doc->Find("fields")->is_object());
}

TEST(EventJsonTest, FullRecordRoundTrips) {
  Event event;
  event.type = Type::kAlert;
  event.name = "rss_budget";
  event.severity = "fatal";
  event.message = "over \"budget\"";  // exercises escaping
  event.epoch = 2.0;
  event.fields = {{"value", 7.25}, {"limit", 1.0}};
  event.seq = 9;
  event.unix_ms = 42;
  auto doc = json::Parse(ToJsonLine(event));
  ASSERT_TRUE(doc.ok()) << ToJsonLine(event);
  EXPECT_EQ(doc->GetString("severity"), "fatal");
  EXPECT_EQ(doc->GetString("message"), "over \"budget\"");
  EXPECT_EQ(doc->GetDouble("epoch", -1), 2.0);
  const json::Value* fields = doc->Find("fields");
  ASSERT_NE(fields, nullptr);
  EXPECT_EQ(fields->GetDouble("value", 0), 7.25);
  EXPECT_EQ(fields->GetDouble("limit", 0), 1.0);
}

TEST_F(JournalTest, EmitAssignsIncreasingSeqAndCountsTypes) {
  Journal& journal = Journal::Global();
  Event a;
  a.type = Type::kStage;
  a.name = "load";
  Event b;
  b.type = Type::kProbe;
  b.name = "fairness";
  const uint64_t seq_a = journal.Emit(a);
  const uint64_t seq_b = journal.Emit(b);
  EXPECT_GT(seq_a, 0u);
  EXPECT_GT(seq_b, seq_a);
  EXPECT_EQ(journal.total(), 2u);
  EXPECT_EQ(journal.pending(), 2u);
  EXPECT_EQ(journal.TypeCount(Type::kStage), 1u);
  EXPECT_EQ(journal.TypeCount(Type::kProbe), 1u);
  EXPECT_EQ(journal.TypeCount(Type::kAlert), 0u);
  EXPECT_EQ(journal.dropped(), 0u);
}

TEST_F(JournalTest, FlushAppendsOnceAndClearsPending) {
  Journal& journal = Journal::Global();
  const std::string path = TempPath("flush");
  std::remove(path.c_str());

  Event event;
  event.type = Type::kConfig;
  event.name = "run_start";
  journal.Emit(event);
  ASSERT_TRUE(journal.FlushTo(path).ok());
  EXPECT_EQ(journal.pending(), 0u);
  EXPECT_EQ(ReadLines(path).size(), 1u);

  // A flush with nothing pending appends nothing.
  ASSERT_TRUE(journal.FlushTo(path).ok());
  EXPECT_EQ(ReadLines(path).size(), 1u);

  // The next record lands after the first — append, not rewrite.
  event.name = "run_end";
  journal.Emit(event);
  ASSERT_TRUE(journal.FlushTo(path).ok());
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  auto first = json::Parse(lines[0]);
  auto second = json::Parse(lines[1]);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->GetString("name"), "run_start");
  EXPECT_EQ(second->GetString("name"), "run_end");
  EXPECT_GT(second->GetDouble("seq", 0), first->GetDouble("seq", 0));
  std::remove(path.c_str());
}

TEST_F(JournalTest, FlushFailureKeepsRecordsPending) {
  Journal& journal = Journal::Global();
  Event event;
  event.type = Type::kStage;
  event.name = "fit";
  journal.Emit(event);
  EXPECT_FALSE(journal.FlushTo("/nonexistent-dir-xyz/events.jsonl").ok());
  EXPECT_EQ(journal.pending(), 1u);  // still there for the next flush
}

TEST_F(JournalTest, OverflowDropsNewRecordsAndCountsThem) {
  Journal& journal = Journal::Global();
  Event event;
  event.type = Type::kStage;
  event.name = "spin";
  for (size_t i = 0; i < Journal::kMaxPending; ++i) {
    ASSERT_GT(journal.Emit(event), 0u);
  }
  EXPECT_EQ(journal.Emit(event), 0u);  // buffer full -> dropped
  EXPECT_EQ(journal.dropped(), 1u);
  EXPECT_EQ(journal.total(), Journal::kMaxPending);
  EXPECT_EQ(journal.pending(), Journal::kMaxPending);
}

TEST_F(JournalTest, ResetClearsEverything) {
  Journal& journal = Journal::Global();
  Event event;
  event.type = Type::kCrash;
  event.name = "signal_flush";
  journal.Emit(event);
  journal.ResetForTest();
  EXPECT_EQ(journal.pending(), 0u);
  EXPECT_EQ(journal.total(), 0u);
  EXPECT_EQ(journal.dropped(), 0u);
  EXPECT_EQ(journal.TypeCount(Type::kCrash), 0u);
}

}  // namespace
}  // namespace fairgen::events
