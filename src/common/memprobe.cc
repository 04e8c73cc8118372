#include "common/memprobe.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "common/events.h"
#include "common/logging.h"

namespace fairgen {
namespace memprobe {

namespace {

/// Reads a "<key>:  <n> kB" line from /proc/self/status and returns the
/// value in bytes, or 0 when the file or key is unavailable (non-procfs
/// platforms).
uint64_t ProcStatusBytes(const char* key) {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0;
  uint64_t bytes = 0;
  char line[256];
  size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, key, key_len) != 0 || line[key_len] != ':') {
      continue;
    }
    unsigned long long kb = 0;
    if (std::sscanf(line + key_len + 1, "%llu", &kb) == 1) {
      bytes = static_cast<uint64_t>(kb) * 1024;
    }
    break;
  }
  std::fclose(file);
  return bytes;
}

}  // namespace

uint64_t CurrentRssBytes() { return ProcStatusBytes("VmRSS"); }

uint64_t PeakRssBytes() {
  uint64_t bytes = ProcStatusBytes("VmHWM");
  if (bytes != 0) return bytes;
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is in kilobytes on Linux.
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

ByteCounter& NnBytes() {
  // Leaked singleton: FloatBuffer deallocations can run in static
  // destructors, so the counter must outlive every container charging it.
  static ByteCounter* counter = new ByteCounter();
  return *counter;
}

ByteCounter& TransitionBytes() {
  static ByteCounter* counter = new ByteCounter();
  return *counter;
}

namespace internal {

void* AlignedNew(size_t bytes, size_t alignment) {
  return ::operator new(bytes, std::align_val_t{alignment});
}

void AlignedDelete(void* p, size_t alignment) noexcept {
  ::operator delete(p, std::align_val_t{alignment});
}

}  // namespace internal

void Sample(std::string_view stage) {
  const uint64_t rss_current = CurrentRssBytes();
  const uint64_t nn_live = NnBytes().live();

  // The probe call sites mark the pipeline stage boundaries
  // (load/fit/generate/exit), which makes them the natural source of
  // `stage` records for the run-event journal — and a progress signal
  // for the watchdog's stall rule.
  events::Event event;
  event.type = events::Type::kStage;
  event.name = std::string(stage);
  event.fields = {{"rss_bytes", static_cast<double>(rss_current)},
                  {"nn_bytes_live", static_cast<double>(nn_live)}};
  events::Journal::Global().Emit(std::move(event));

  FAIRGEN_LOG(DEBUG) << "memprobe[" << std::string(stage)
                     << "]: rss=" << rss_current
                     << "B peak=" << PeakRssBytes()
                     << "B nn_live=" << nn_live << "B";
}

}  // namespace memprobe
}  // namespace fairgen
