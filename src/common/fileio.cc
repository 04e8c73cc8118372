#include "common/fileio.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace fairgen {

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  if (!WriteFileAtomicSignalSafe(path.c_str(), tmp.c_str(), bytes.data(),
                                 bytes.size())) {
    return Status::IOError("atomic write failed: " + path + ": " +
                           ::strerror(errno));
  }
  return Status::OK();
}

bool WriteFileAtomicSignalSafe(const char* path, const char* tmp_path,
                               const char* data, size_t size) {
  const int fd =
      ::open(tmp_path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return false;
  bool ok = true;
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ok = false;
      break;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  // fsync before rename: after a crash the file at `path` must be either
  // the old content or the complete new content, never a hole the kernel
  // had not flushed yet.
  if (ok) ok = ::fsync(fd) == 0;
  ok = (::close(fd) == 0) && ok;
  if (ok) ok = ::rename(tmp_path, path) == 0;
  if (!ok) {
    const int saved_errno = errno;  // for the caller's message
    ::unlink(tmp_path);
    errno = saved_errno;
  }
  return ok;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("read failed: " + path);
  }
  return buf.str();
}

bool PathExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status MakeDirectories(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("empty directory path");
  }
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    return Status::IOError("mkdir failed: " + path + ": " + ec.message());
  }
  return Status::OK();
}

}  // namespace fairgen
