// Unit tests of the FGCKPT2 checkpoint container (core/checkpoint.h):
// round-trips, every corruption class the loader must reject without
// crashing (bad magic, bad version, truncation at any byte, trailing
// bytes, duplicate sections), atomic file writes, and the directory
// helpers (naming, listing, rotation).

#include "core/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fileio.h"
#include "nn/serialize.h"

namespace fairgen {
namespace {

std::string TempDirPath(const char* name) {
  return testing::TempDir() + "/fairgen_ckpt_container_" + name;
}

CheckpointWriter MakeWriter() {
  CheckpointWriter writer;
  writer.AddSection("alpha", "first payload");
  writer.AddSection("beta", std::string("\x00\x01\x02\xff", 4));
  writer.AddSection("gamma", "");  // empty payloads are legal
  return writer;
}

TEST(CheckpointContainerTest, RoundTripsSections) {
  std::string blob = MakeWriter().Serialize();
  auto reader = CheckpointReader::Parse(blob);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  EXPECT_EQ(reader->SectionNames(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
  EXPECT_TRUE(reader->Has("alpha"));
  EXPECT_FALSE(reader->Has("delta"));

  auto alpha = reader->Section("alpha");
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(**alpha, "first payload");
  auto beta = reader->Section("beta");
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(**beta, std::string("\x00\x01\x02\xff", 4));
  auto gamma = reader->Section("gamma");
  ASSERT_TRUE(gamma.ok());
  EXPECT_TRUE((*gamma)->empty());

  auto missing = reader->Section("delta");
  EXPECT_TRUE(missing.status().IsNotFound());
  EXPECT_NE(missing.status().ToString().find("delta"), std::string::npos)
      << "error should name the missing section";
}

TEST(CheckpointContainerTest, RejectsBadMagic) {
  std::string blob = MakeWriter().Serialize();
  blob[0] = 'X';
  EXPECT_TRUE(CheckpointReader::Parse(blob).status().IsInvalidArgument());
}

TEST(CheckpointContainerTest, RejectsUnsupportedVersion) {
  std::string blob = MakeWriter().Serialize();
  // The u32 version immediately follows the 8-byte magic.
  blob[8] = static_cast<char>(ckpt::kFormatVersion + 1);
  Status status = CheckpointReader::Parse(blob).status();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.ToString().find("version"), std::string::npos);
}

TEST(CheckpointContainerTest, RejectsTruncationAtEveryByte) {
  // Any strict prefix must fail with InvalidArgument — never crash, never
  // parse successfully (the section count and lengths are all validated).
  std::string blob = MakeWriter().Serialize();
  for (size_t cut = 0; cut < blob.size(); ++cut) {
    Status status =
        CheckpointReader::Parse(blob.substr(0, cut)).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << "prefix length " << cut;
  }
}

TEST(CheckpointContainerTest, RejectsTrailingBytes) {
  std::string blob = MakeWriter().Serialize();
  blob += '\0';
  Status status = CheckpointReader::Parse(blob).status();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.ToString().find("trailing"), std::string::npos);
}

TEST(CheckpointContainerTest, RejectsDuplicateSections) {
  // The writer refuses duplicates outright (FAIRGEN_CHECK), so build the
  // hostile blob by hand with the serialize primitives.
  std::string blob("FGCKPT2\n");
  nn::AppendU32(blob, ckpt::kFormatVersion);
  nn::AppendU32(blob, 2);
  for (int i = 0; i < 2; ++i) {
    nn::AppendString(blob, "dup");
    nn::AppendU64(blob, 1);
    blob.push_back('x');
  }
  Status status = CheckpointReader::Parse(blob).status();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.ToString().find("dup"), std::string::npos);
}

TEST(CheckpointContainerDeathTest, WriterRefusesDuplicateSections) {
  CheckpointWriter writer;
  writer.AddSection("dup", "a");
  EXPECT_DEATH(writer.AddSection("dup", "b"), "duplicate");
}

TEST(CheckpointContainerTest, WriteFileRoundTrips) {
  std::string dir = TempDirPath("write");
  ASSERT_TRUE(MakeDirectories(dir).ok());
  std::string path = dir + "/round.fgckpt";
  ASSERT_TRUE(MakeWriter().WriteFile(path).ok());

  auto reader = CheckpointReader::ReadFile(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto alpha = reader->Section("alpha");
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(**alpha, "first payload");
  // The atomic write leaves no temp file behind.
  EXPECT_FALSE(PathExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(CheckpointContainerTest, FailedWriteLeavesNoFile) {
  std::string path = TempDirPath("missing") + "/nodir/x.fgckpt";
  EXPECT_FALSE(MakeWriter().WriteFile(path).ok());
  EXPECT_FALSE(PathExists(path));
}

TEST(CheckpointContainerTest, ReadFileMissingIsIOError) {
  EXPECT_TRUE(
      CheckpointReader::ReadFile("/no/such/ckpt.fgckpt").status().IsIOError());
}

TEST(CheckpointDirTest, FileNameIsZeroPadded) {
  EXPECT_EQ(CheckpointFileName(4), "ckpt-000004.fgckpt");
  EXPECT_EQ(CheckpointFileName(123456), "ckpt-123456.fgckpt");
}

TEST(CheckpointDirTest, ListsSortedAndIgnoresForeignFiles) {
  std::string dir = TempDirPath("list");
  ASSERT_TRUE(MakeDirectories(dir).ok());
  for (uint32_t cycle : {3u, 1u, 12u}) {
    ASSERT_TRUE(
        WriteFileAtomic(dir + "/" + CheckpointFileName(cycle), "x").ok());
  }
  // Files that don't match the ckpt-NNNNNN.fgckpt pattern are ignored.
  ASSERT_TRUE(WriteFileAtomic(dir + "/notes.txt", "x").ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/ckpt-abc.fgckpt", "x").ok());

  std::vector<CheckpointFile> files = ListCheckpoints(dir);
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].cycle, 1u);
  EXPECT_EQ(files[1].cycle, 3u);
  EXPECT_EQ(files[2].cycle, 12u);
  EXPECT_EQ(files[2].path, dir + "/ckpt-000012.fgckpt");
}

TEST(CheckpointDirTest, MissingDirectoryListsEmpty) {
  EXPECT_TRUE(ListCheckpoints("/no/such/checkpoint/dir").empty());
}

TEST(CheckpointDirTest, RotationKeepsNewest) {
  std::string dir = TempDirPath("rotate");
  ASSERT_TRUE(MakeDirectories(dir).ok());
  for (uint32_t cycle = 1; cycle <= 5; ++cycle) {
    ASSERT_TRUE(
        WriteFileAtomic(dir + "/" + CheckpointFileName(cycle), "x").ok());
  }
  RotateCheckpoints(dir, 2);
  std::vector<CheckpointFile> files = ListCheckpoints(dir);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].cycle, 4u);
  EXPECT_EQ(files[1].cycle, 5u);

  // Rotating below the current count is a no-op.
  RotateCheckpoints(dir, 10);
  EXPECT_EQ(ListCheckpoints(dir).size(), 2u);
}

// A cycle number that does not fit in uint32_t marks a foreign file, not a
// checkpoint. Truncated, ckpt-99999999999 would read as cycle 1215752191:
// resume would try it first and rotation would keep it over real files.
TEST(CheckpointDirTest, IgnoresCycleNumbersThatOverflow) {
  std::string dir = TempDirPath("overflow");
  ASSERT_TRUE(MakeDirectories(dir).ok());
  const std::vector<std::string> strays = {dir + "/ckpt-4294967296.fgckpt",
                                           dir + "/ckpt-99999999999.fgckpt"};
  for (const std::string& stray : strays) {
    ASSERT_TRUE(WriteFileAtomic(stray, "x").ok());
  }
  for (uint32_t cycle = 1; cycle <= 4; ++cycle) {
    ASSERT_TRUE(
        WriteFileAtomic(dir + "/" + CheckpointFileName(cycle), "x").ok());
  }

  std::vector<CheckpointFile> files = ListCheckpoints(dir);
  ASSERT_EQ(files.size(), 4u);
  EXPECT_EQ(files.back().cycle, 4u);

  RotateCheckpoints(dir, 2);
  files = ListCheckpoints(dir);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].cycle, 3u);
  EXPECT_EQ(files[1].cycle, 4u);
  for (const std::string& stray : strays) {
    EXPECT_TRUE(PathExists(stray)) << "rotation deleted a foreign file";
    std::remove(stray.c_str());
  }
  for (const CheckpointFile& file : files) std::remove(file.path.c_str());
}

}  // namespace
}  // namespace fairgen
