#include "common/events.h"

#include <unistd.h>

#include <cstdio>
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

TEST(EventJsonTest, ParseJsonLineReadsBackWhatToJsonLineWrote) {
  Event event;
  event.type = Type::kProbe;
  event.name = "fairness";
  event.message = "tab\tand \"quote\"";
  event.epoch = 3.0;
  event.fields = {{"protected_discrepancy_mean", 0.1 + 0.2},
                  {"disparity_gap", -1e-300}};
  event.seq = 12;
  event.unix_ms = 1792410920669;
  auto parsed = ParseJsonLine(ToJsonLine(event));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->type, Type::kProbe);
  EXPECT_EQ(parsed->name, "fairness");
  EXPECT_EQ(parsed->severity, "");
  EXPECT_EQ(parsed->message, event.message);
  EXPECT_EQ(parsed->epoch, 3.0);
  EXPECT_EQ(parsed->seq, 12u);
  EXPECT_EQ(parsed->unix_ms, 1792410920669u);
  // Fields come back in key order, each value bit-exact.
  ASSERT_EQ(parsed->fields.size(), 2u);
  EXPECT_EQ(parsed->fields[0].first, "disparity_gap");
  ASSERT_NE(parsed->Field("protected_discrepancy_mean"), nullptr);
  EXPECT_EQ(*parsed->Field("protected_discrepancy_mean"), 0.1 + 0.2);
  EXPECT_EQ(*parsed->Field("disparity_gap"), -1e-300);
  EXPECT_EQ(parsed->Field("discrepancy_mean"), nullptr);

  // An absent epoch reads back as "unknown".
  event.epoch = -1.0;
  EXPECT_EQ(ParseJsonLine(ToJsonLine(event))->epoch, -1.0);
}

TEST(EventJsonTest, ParseJsonLineRejectsMalformedRecords) {
  for (const char* line : {
           "not json",
           "[1, 2]",
           "{\"type\": \"stage\", \"name\": \"fit\"}",  // no seq
           "{\"seq\": 1, \"name\": \"fit\"}",             // no type
           "{\"seq\": 1, \"type\": \"stage\"}",           // no name
           "{\"seq\": 1, \"type\": \"bogus\", \"name\": \"x\"}",
           // The retired `config` type: run.json holds that provenance.
           "{\"seq\": 1, \"unix_ms\": 1, \"type\": \"config\", "
           "\"name\": \"run_start\", \"fields\": {}}",
           "{\"seq\": 1, \"type\": \"stage\", \"name\": \"x\", "
           "\"fields\": {}}",  // no unix_ms
           "{\"seq\": 1, \"unix_ms\": 1, \"type\": \"stage\", "
           "\"name\": \"x\"}",  // no fields
           "{\"seq\": 1, \"unix_ms\": 1, \"type\": \"stage\", "
           "\"name\": \"x\", \"fields\": []}",  // fields not an object
           "{\"seq\": 1, \"unix_ms\": 1, \"type\": \"stage\", "
           "\"name\": \"x\", \"fields\": {\"rss_bytes\": \"big\"}}",
       }) {
    EXPECT_FALSE(ParseJsonLine(line).ok()) << line;
  }
}

TEST(JournalFileTest, ReadsRecordsAndCountsMalformedLines) {
  const std::string path = testing::TempDir() + "/fairgen_events_file_" +
                           std::to_string(::getpid()) + ".jsonl";
  {
    std::ofstream out(path);
    out << "{\"seq\": 1, \"unix_ms\": 1, \"type\": \"stage\", "
           "\"name\": \"load\", \"fields\": {}}\r\n"
        << "\n"
        << "{\"seq\": 2, \"torn\n"
        << "{\"seq\": 3, \"unix_ms\": 3, \"type\": \"crash\", "
           "\"name\": \"signal_flush\", \"fields\": {}}\n";
  }
  auto file = ReadJournalFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_EQ(file->events.size(), 2u);
  EXPECT_EQ(file->events[0].name, "load");
  EXPECT_EQ(file->events[1].seq, 3u);
  EXPECT_EQ(file->malformed_lines, (std::vector<size_t>{3}));
  EXPECT_FALSE(ReadJournalFile(path).ok());  // gone: IOError
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
  event.type = Type::kStage;
  event.name = "load";
  journal.Emit(event);
  ASSERT_TRUE(journal.FlushTo(path).ok());
  EXPECT_EQ(journal.pending(), 0u);
  EXPECT_EQ(ReadLines(path).size(), 1u);

  // A flush with nothing pending appends nothing.
  ASSERT_TRUE(journal.FlushTo(path).ok());
  EXPECT_EQ(ReadLines(path).size(), 1u);

  // The next record lands after the first — append, not rewrite.
  event.name = "fit";
  journal.Emit(event);
  ASSERT_TRUE(journal.FlushTo(path).ok());
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  auto first = json::Parse(lines[0]);
  auto second = json::Parse(lines[1]);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->GetString("name"), "load");
  EXPECT_EQ(second->GetString("name"), "fit");
  EXPECT_GT(second->GetDouble("seq", 0), first->GetDouble("seq", 0));
  std::remove(path.c_str());
}

TEST_F(JournalTest, FlushThroughSeqKeepsLaterRecordsPending) {
  Journal& journal = Journal::Global();
  const std::string path = TempPath("through");
  EXPECT_EQ(journal.last_seq(), 0u);
  Event event;
  event.type = Type::kStage;
  event.name = "load";
  journal.Emit(event);
  const uint64_t through = journal.last_seq();
  event.name = "fit";
  journal.Emit(event);
  EXPECT_EQ(journal.last_seq(), through + 1);

  ASSERT_TRUE(journal.FlushTo(path, through).ok());
  EXPECT_EQ(journal.pending(), 1u);
  ASSERT_TRUE(journal.FlushTo(path).ok());
  EXPECT_EQ(journal.pending(), 0u);
  auto file = ReadJournalFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_EQ(file->events.size(), 2u);
  EXPECT_EQ(file->events[0].name, "load");
  EXPECT_EQ(file->events[1].name, "fit");
  std::remove(path.c_str());
}

TEST_F(JournalTest, VisitPendingSeesOnlyOneType) {
  Journal& journal = Journal::Global();
  Event probe;
  probe.type = Type::kProbe;
  probe.name = "fairness";
  Event stage;
  stage.type = Type::kStage;
  stage.name = "fit";
  const uint64_t first = journal.Emit(probe);
  journal.Emit(stage);
  const uint64_t second = journal.Emit(probe);
  std::vector<uint64_t> seen;
  journal.VisitPending(Type::kProbe, [&](const Event& event) {
    EXPECT_EQ(event.type, Type::kProbe);
    seen.push_back(event.seq);
  });
  EXPECT_EQ(seen, (std::vector<uint64_t>{first, second}));
  EXPECT_EQ(journal.pending(), 3u);  // visiting keeps the records
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
