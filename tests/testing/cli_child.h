#ifndef FAIRGEN_TESTS_TESTING_CLI_CHILD_H_
#define FAIRGEN_TESTS_TESTING_CLI_CHILD_H_

#include <fcntl.h>
#include <sys/types.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace fairgen {

/// Forks and execs `args` (args[0] is the binary) with stdout sent to
/// /dev/null and stderr to `stderr_path`, truncated first. A child that
/// dies by a signal never exits with a sanitizer's exit code, so a
/// caller reads its sanitizer reports from that file after `waitpid`
/// (`SanitizerReports`). Returns the child's pid, or -1 if the fork or
/// an open failed.
inline pid_t SpawnCliChild(const std::vector<std::string>& args,
                           const std::string& stderr_path) {
  // Everything the child needs is made before the fork: between fork and
  // exec the child only calls async-signal-safe functions.
  std::vector<std::string> strings = args;
  std::vector<char*> argv;
  argv.reserve(strings.size() + 1);
  for (std::string& a : strings) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int null_fd = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
  const int err_fd = ::open(stderr_path.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  pid_t pid = -1;
  if (null_fd >= 0 && err_fd >= 0) {
    pid = ::fork();
    if (pid == 0) {
      ::dup2(null_fd, STDOUT_FILENO);
      ::dup2(err_fd, STDERR_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }
  if (null_fd >= 0) ::close(null_fd);
  if (err_fd >= 0) ::close(err_fd);
  return pid;
}

/// The contents of a child's stderr file if it holds a ThreadSanitizer,
/// AddressSanitizer or UndefinedBehaviorSanitizer report, else "".
inline std::string SanitizerReports(const std::string& stderr_path) {
  std::ifstream in(stderr_path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string contents = text.str();
  for (const char* marker : {"WARNING: ThreadSanitizer",
                             "ERROR: AddressSanitizer", "runtime error:"}) {
    if (contents.find(marker) != std::string::npos) return contents;
  }
  return "";
}

}  // namespace fairgen

#endif  // FAIRGEN_TESTS_TESTING_CLI_CHILD_H_
