#include "core/checkpoint.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/fileio.h"
#include "common/logging.h"
#include "common/strings.h"
#include "nn/serialize.h"

namespace fairgen {

namespace {
constexpr char kMagic[] = "FGCKPT2\n";
constexpr size_t kMagicLen = sizeof(kMagic) - 1;
constexpr char kFilePrefix[] = "ckpt-";
constexpr char kFileSuffix[] = ".fgckpt";
}  // namespace

void CheckpointWriter::AddSection(std::string name, std::string payload) {
  for (const auto& [existing, _] : sections_) {
    FAIRGEN_CHECK(existing != name) << "duplicate checkpoint section";
  }
  sections_.emplace_back(std::move(name), std::move(payload));
}

std::string CheckpointWriter::Serialize() const {
  std::string out(kMagic, kMagicLen);
  nn::AppendU32(out, ckpt::kFormatVersion);
  nn::AppendU32(out, static_cast<uint32_t>(sections_.size()));
  for (const auto& [name, payload] : sections_) {
    nn::AppendString(out, name);
    nn::AppendU64(out, payload.size());
    out.append(payload);
  }
  return out;
}

Status CheckpointWriter::WriteFile(const std::string& path) const {
  return WriteFileAtomic(path, Serialize());
}

Result<CheckpointReader> CheckpointReader::Parse(std::string bytes) {
  if (bytes.size() < kMagicLen ||
      std::memcmp(bytes.data(), kMagic, kMagicLen) != 0) {
    return Status::InvalidArgument(
        "not an FGCKPT2 checkpoint (bad or missing magic)");
  }
  nn::ByteReader reader(bytes, kMagicLen);
  FAIRGEN_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != ckpt::kFormatVersion) {
    return Status::InvalidArgument(
        "unsupported checkpoint format version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(ckpt::kFormatVersion) + ")");
  }
  FAIRGEN_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  CheckpointReader out;
  out.sections_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    auto name = reader.ReadString();
    if (!name.ok()) {
      return Status::InvalidArgument("truncated checkpoint section table: " +
                                     name.status().message());
    }
    auto size = reader.ReadU64();
    if (!size.ok() || *size > reader.remaining()) {
      return Status::InvalidArgument(
          "checkpoint section '" + *name +
          "' is truncated (declared size exceeds the file)");
    }
    if (out.Has(*name)) {
      return Status::InvalidArgument("duplicate checkpoint section '" +
                                     *name + "'");
    }
    out.sections_.emplace_back(
        name.MoveValueUnsafe(),
        bytes.substr(reader.position(), static_cast<size_t>(*size)));
    // Advance the cursor past the payload we just copied.
    reader = nn::ByteReader(bytes,
                            reader.position() + static_cast<size_t>(*size));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(reader.remaining()) +
        " trailing bytes after the last section (concatenated or corrupted "
        "file)");
  }
  return out;
}

Result<CheckpointReader> CheckpointReader::ReadFile(const std::string& path) {
  FAIRGEN_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  auto parsed = Parse(std::move(bytes));
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " + parsed.status().message());
  }
  return parsed;
}

bool CheckpointReader::Has(const std::string& name) const {
  for (const auto& [existing, _] : sections_) {
    if (existing == name) return true;
  }
  return false;
}

Result<const std::string*> CheckpointReader::Section(
    const std::string& name) const {
  for (const auto& [existing, payload] : sections_) {
    if (existing == name) return &payload;
  }
  return Status::NotFound("checkpoint is missing section '" + name + "'");
}

std::vector<std::string> CheckpointReader::SectionNames() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& [name, _] : sections_) names.push_back(name);
  return names;
}

std::string CheckpointFileName(uint32_t cycle) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%06u%s", kFilePrefix, cycle,
                kFileSuffix);
  return buf;
}

std::vector<CheckpointFile> ListCheckpoints(const std::string& dir) {
  std::vector<CheckpointFile> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  const size_t prefix_len = sizeof(kFilePrefix) - 1;
  const size_t suffix_len = sizeof(kFileSuffix) - 1;
  while (struct dirent* entry = ::readdir(d)) {
    std::string name = entry->d_name;
    if (name.size() <= prefix_len + suffix_len ||
        name.compare(0, prefix_len, kFilePrefix) != 0 ||
        name.compare(name.size() - suffix_len, suffix_len, kFileSuffix) !=
            0) {
      continue;
    }
    // Digits only, and the cycle must fit in uint32_t: a name that would
    // wrap is skipped like any other foreign file.
    const Result<uint64_t> cycle = ParseUint(
        std::string_view(name).substr(
            prefix_len, name.size() - prefix_len - suffix_len),
        UINT32_MAX);
    if (!cycle.ok()) continue;
    CheckpointFile file;
    file.path = dir + "/" + name;
    file.cycle = static_cast<uint32_t>(*cycle);
    out.push_back(std::move(file));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(),
            [](const CheckpointFile& a, const CheckpointFile& b) {
              return a.cycle < b.cycle;
            });
  return out;
}

void RotateCheckpoints(const std::string& dir, uint32_t retain) {
  FAIRGEN_CHECK(retain >= 1);
  std::vector<CheckpointFile> files = ListCheckpoints(dir);
  if (files.size() <= retain) return;
  for (size_t i = 0; i + retain < files.size(); ++i) {
    ::unlink(files[i].path.c_str());
  }
}

}  // namespace fairgen
