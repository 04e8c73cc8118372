#ifndef FAIRGEN_COMMON_FILEIO_H_
#define FAIRGEN_COMMON_FILEIO_H_

#include <string>

#include "common/result.h"
#include "common/status.h"

namespace fairgen {

/// \brief Writes `bytes` to `path` atomically and durably: the bytes go
/// to `<path>.tmp` first, are fsync(2)ed, and the temp file is
/// `rename(2)`d over `path`. A concurrent reader (tail, a report,
/// a resume after SIGKILL) never observes a torn file, and a
/// failed write never leaves a partial file at the final path — at worst
/// a stale `<path>.tmp`, which the next successful write replaces.
///
/// This is the write contract shared by the telemetry run files
/// (run.json / snapshot.json) and the training checkpoints.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

/// \brief The write behind WriteFileAtomic, restricted to
/// async-signal-safe calls (open/write/fsync/close/rename/unlink) so a
/// signal handler can use it: no allocation, no stdio, no locks. The
/// caller supplies the staging path (by convention `<path>.tmp`, built
/// ahead of time). Returns false on any failure, with errno from the
/// failing call, after removing the staging file.
bool WriteFileAtomicSignalSafe(const char* path, const char* tmp_path,
                               const char* data, size_t size);

/// \brief Reads the whole file into a string (binary-exact).
Result<std::string> ReadFileToString(const std::string& path);

/// \brief True iff a regular file (or directory) exists at `path`.
bool PathExists(const std::string& path);

/// \brief Creates `path` and any missing parents (like `mkdir -p`).
Status MakeDirectories(const std::string& path);

}  // namespace fairgen

#endif  // FAIRGEN_COMMON_FILEIO_H_
