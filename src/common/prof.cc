#include "common/prof.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

#include "common/fileio.h"
#include "common/metrics.h"
#include "common/strings.h"

namespace fairgen {
namespace prof {

namespace {

// ---------------------------------------------------------------------------
// Sample rings: SPSC, producer = the SIGPROF handler on the sampled
// thread, consumer = whoever calls Drain (serialized by g_mu). Claimed
// from a preallocated pool on first sample so the handler never mallocs;
// a thread keeps its ring for the process lifetime (Start/Stop cycles
// reuse it — resetting the claim counter would let two threads share a
// ring).
// ---------------------------------------------------------------------------

constexpr size_t kRingWords = 8192;  // 64 KiB of samples per thread
constexpr size_t kRingMask = kRingWords - 1;
static_assert((kRingWords & kRingMask) == 0, "ring size must be 2^n");
constexpr uint32_t kMaxRings = 64;
// backtrace()[0] is the handler itself, [1] the kernel signal trampoline
// (__restore_rt); the interrupted code starts at [2].
constexpr uint32_t kSkipFrames = 2;
constexpr uint32_t kMaxCaptureDepth = 64;

struct alignas(64) SampleRing {
  // Monotonic word indices; position = index & kRingMask. head is
  // producer-owned, tail consumer-owned.
  std::atomic<uint64_t> head{0};
  std::atomic<uint64_t> tail{0};
  std::atomic<uint64_t> dropped{0};
  uint64_t words[kRingWords];
};

SampleRing* g_rings = nullptr;  // array[kMaxRings], allocated once, leaked
std::atomic<uint32_t> g_ring_claims{0};
std::atomic<uint64_t> g_pool_exhausted{0};
std::atomic<bool> g_running{false};
std::atomic<uint32_t> g_max_depth{48};

// POD thread-locals only: the handler may touch these, and glibc places
// them in static TLS for code linked into the executable, so no lazy
// allocation happens at signal time.
thread_local SampleRing* t_ring = nullptr;
thread_local bool t_ring_unavailable = false;

// Async-signal-safe by construction: atomics and backtrace (primed at
// Start so its one-time dynamic-loader work happens outside signal
// context). No locks, no allocation, no stdio.
void SigProfHandler(int /*sig*/, siginfo_t* /*info*/, void* /*ctx*/) {
  const int saved_errno = errno;
  if (g_running.load(std::memory_order_relaxed)) {
    SampleRing* ring = t_ring;
    if (ring == nullptr && !t_ring_unavailable) {
      const uint32_t idx =
          g_ring_claims.fetch_add(1, std::memory_order_relaxed);
      if (idx < kMaxRings) {
        ring = &g_rings[idx];
        t_ring = ring;
      } else {
        t_ring_unavailable = true;
      }
    }
    if (ring == nullptr) {
      g_pool_exhausted.fetch_add(1, std::memory_order_relaxed);
    } else {
      void* frames[kMaxCaptureDepth];
      const int captured = ::backtrace(frames, kMaxCaptureDepth);
      uint32_t depth =
          captured > static_cast<int>(kSkipFrames)
              ? static_cast<uint32_t>(captured) - kSkipFrames
              : 0;
      depth = std::min(depth, g_max_depth.load(std::memory_order_relaxed));
      if (depth > 0) {
        // Record layout: [depth][pc * depth], leaf-first.
        const uint64_t head = ring->head.load(std::memory_order_relaxed);
        const uint64_t tail = ring->tail.load(std::memory_order_acquire);
        const uint64_t needed = 1 + depth;
        if (kRingWords - (head - tail) < needed) {
          ring->dropped.fetch_add(1, std::memory_order_relaxed);
        } else {
          ring->words[head & kRingMask] = depth;
          for (uint32_t i = 0; i < depth; ++i) {
            ring->words[(head + 1 + i) & kRingMask] =
                reinterpret_cast<uint64_t>(frames[kSkipFrames + i]);
          }
          ring->head.store(head + needed, std::memory_order_release);
        }
      }
    }
  }
  errno = saved_errno;
}

// ---------------------------------------------------------------------------
// Aggregation (under g_mu): interned stacks with their sample counts,
// plus the symbolization cache.
// ---------------------------------------------------------------------------

struct ProfilerState {
  std::mutex mu;
  // Leaf-first pc vectors, interned.
  std::map<std::vector<uint64_t>, uint32_t> stack_ids;
  std::vector<const std::vector<uint64_t>*> stacks;  // by id
  std::vector<uint64_t> stack_counts;                // by id
  uint64_t samples = 0;
  uint64_t corrupt_records = 0;
  uint64_t dropped_reported = 0;  // already pushed to prof.samples_dropped
  uint32_t hz = 0;
  struct sigaction old_sigprof;
  bool have_old_sigprof = false;
  std::map<uint64_t, std::string> symbol_cache;
};

ProfilerState& State() {
  static ProfilerState* state = new ProfilerState();
  return *state;
}

metrics::Counter& SamplesCounter() {
  static metrics::Counter* c =
      &metrics::MetricsRegistry::Global().GetCounter("prof.samples");
  return *c;
}

metrics::Counter& DroppedCounter() {
  static metrics::Counter* c =
      &metrics::MetricsRegistry::Global().GetCounter("prof.samples_dropped");
  return *c;
}

// Precondition: state.mu held.
void DrainLocked(ProfilerState& state) {
  if (g_rings == nullptr) return;
  uint64_t drained = 0;
  const uint32_t rings =
      std::min(g_ring_claims.load(std::memory_order_acquire), kMaxRings);
  for (uint32_t r = 0; r < rings; ++r) {
    SampleRing& ring = g_rings[r];
    uint64_t tail = ring.tail.load(std::memory_order_relaxed);
    const uint64_t head = ring.head.load(std::memory_order_acquire);
    while (tail != head) {
      const uint64_t depth = ring.words[tail & kRingMask];
      if (depth == 0 || depth > kMaxCaptureDepth ||
          head - tail < 1 + depth) {
        // Corrupt record — cannot happen with a correct producer, but a
        // bounds bug must not turn into an infinite drain loop.
        ++state.corrupt_records;
        tail = head;
        break;
      }
      std::vector<uint64_t> pcs(depth);
      for (uint64_t i = 0; i < depth; ++i) {
        pcs[i] = ring.words[(tail + 1 + i) & kRingMask];
      }
      tail += 1 + depth;

      auto it = state.stack_ids.find(pcs);
      if (it == state.stack_ids.end()) {
        const uint32_t id = static_cast<uint32_t>(state.stacks.size());
        it = state.stack_ids.emplace(std::move(pcs), id).first;
        state.stacks.push_back(&it->first);
        state.stack_counts.push_back(0);
      }
      ++state.stack_counts[it->second];
      ++state.samples;
      ++drained;
    }
    ring.tail.store(tail, std::memory_order_release);
  }
  if (drained > 0) SamplesCounter().Increment(drained);
}

uint64_t DroppedTotal();

// Precondition: state.mu held. Pushes the session's drop delta into the
// prof.samples_dropped counter.
void ReportDroppedLocked(ProfilerState& state) {
  const uint64_t current = DroppedTotal() + state.corrupt_records;
  if (current > state.dropped_reported) {
    DroppedCounter().Increment(current - state.dropped_reported);
    state.dropped_reported = current;
  }
}

uint64_t DroppedTotal() {
  uint64_t total = g_pool_exhausted.load(std::memory_order_relaxed);
  if (g_rings != nullptr) {
    const uint32_t rings =
        std::min(g_ring_claims.load(std::memory_order_acquire), kMaxRings);
    for (uint32_t r = 0; r < rings; ++r) {
      total += g_rings[r].dropped.load(std::memory_order_relaxed);
    }
  }
  return total;
}

// Precondition: state.mu held. `pc` is a return address; the -1 lands the
// lookup inside the calling instruction so a call at the very end of a
// function does not resolve to its successor.
const std::string& SymbolizeLocked(ProfilerState& state, uint64_t pc) {
  auto it = state.symbol_cache.find(pc);
  if (it != state.symbol_cache.end()) return it->second;
  std::string name;
  Dl_info info;
  if (::dladdr(reinterpret_cast<void*>(pc - 1), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = -1;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = (status == 0 && demangled != nullptr) ? demangled
                                                 : info.dli_sname;
    std::free(demangled);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(pc));
    name = buf;
  }
  // ';' separates frames and newlines separate stacks in the folded
  // format — scrub both out of symbol names.
  for (char& c : name) {
    if (c == ';' || c == '\n' || c == '\r') c = ':';
  }
  return state.symbol_cache.emplace(pc, std::move(name)).first->second;
}

std::string FormatPct(double pct) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", pct);
  return std::string(buf);
}

// Precondition: state.mu held. Top-n leaf self-sample table.
std::vector<SymbolCount> TopSymbolsLocked(ProfilerState& state, size_t n) {
  std::map<std::string, uint64_t> by_symbol;
  for (size_t id = 0; id < state.stack_counts.size(); ++id) {
    if (state.stack_counts[id] == 0) continue;
    const std::vector<uint64_t>& pcs = *state.stacks[id];
    by_symbol[SymbolizeLocked(state, pcs.front())] += state.stack_counts[id];
  }
  std::vector<SymbolCount> out;
  out.reserve(by_symbol.size());
  for (const auto& [symbol, samples] : by_symbol) {
    out.push_back(SymbolCount{symbol, samples});
  }
  std::sort(out.begin(), out.end(),
            [](const SymbolCount& a, const SymbolCount& b) {
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.symbol < b.symbol;
            });
  if (out.size() > n) out.resize(n);
  return out;
}

}  // namespace

Profiler& Profiler::Global() {
  // Leaked singleton, same rule as the tracer: the SIGPROF handler can
  // fire on any thread at any point of shutdown.
  static Profiler* profiler = new Profiler();
  return *profiler;
}

Status Profiler::Start(const ProfilerOptions& options) {
  if (options.hz < 1 || options.hz > 10000) {
    return Status::InvalidArgument("profile hz out of range [1, 10000]: " +
                                   std::to_string(options.hz));
  }
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (g_running.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("profiler already running");
  }
  if (g_rings == nullptr) g_rings = new SampleRing[kMaxRings];

  // Prime backtrace: its first call does one-time dynamic-loader work
  // (dlopening libgcc) that must not happen inside a signal handler.
  void* prime[4];
  ::backtrace(prime, 4);

  // Fresh profile per session: clear the aggregate and flush anything a
  // previous session left in the rings.
  state.stack_ids.clear();
  state.stacks.clear();
  state.stack_counts.clear();
  state.samples = 0;
  state.corrupt_records = 0;
  state.dropped_reported = 0;
  g_pool_exhausted.store(0, std::memory_order_relaxed);
  const uint32_t rings =
      std::min(g_ring_claims.load(std::memory_order_acquire), kMaxRings);
  for (uint32_t r = 0; r < rings; ++r) {
    g_rings[r].tail.store(g_rings[r].head.load(std::memory_order_acquire),
                          std::memory_order_release);
    g_rings[r].dropped.store(0, std::memory_order_relaxed);
  }

  const uint32_t depth_cap = kMaxCaptureDepth - kSkipFrames;
  g_max_depth.store(std::min(options.max_stack_depth, depth_cap),
                    std::memory_order_relaxed);
  state.hz = options.hz;

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = SigProfHandler;
  // SA_RESTART keeps profiled syscalls from surfacing EINTR into code
  // that never saw it unprofiled — part of the observation-only contract.
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (::sigaction(SIGPROF, &action, &state.old_sigprof) != 0) {
    return Status::IOError(std::string("sigaction(SIGPROF) failed: ") +
                           std::strerror(errno));
  }
  state.have_old_sigprof = true;

  metrics::MetricsRegistry::Global()
      .GetGauge("prof.hz")
      .Set(static_cast<double>(options.hz));

  g_running.store(true, std::memory_order_release);

  struct itimerval timer;
  const uint64_t period_us = std::max<uint64_t>(1, 1000000ull / options.hz);
  timer.it_interval.tv_sec = static_cast<time_t>(period_us / 1000000);
  timer.it_interval.tv_usec = static_cast<suseconds_t>(period_us % 1000000);
  timer.it_value = timer.it_interval;
  if (::setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    g_running.store(false, std::memory_order_release);
    return Status::IOError(std::string("setitimer(ITIMER_PROF) failed: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

void Profiler::Stop() {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (!g_running.load(std::memory_order_relaxed)) return;
  struct itimerval zero;
  std::memset(&zero, 0, sizeof(zero));
  ::setitimer(ITIMER_PROF, &zero, nullptr);
  // The handler stays installed (gated to a no-op by g_running): a
  // SIGPROF already pending when the timer was disarmed would hit the
  // *restored* disposition — SIG_DFL terminates the process. An inert
  // handler is the safe steady state; the off-by-default invariant is
  // about processes that never started profiling.
  g_running.store(false, std::memory_order_release);
  DrainLocked(state);
  ReportDroppedLocked(state);
}

bool Profiler::running() const {
  return g_running.load(std::memory_order_relaxed);
}

void Profiler::Drain() {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  DrainLocked(state);
  ReportDroppedLocked(state);
}

uint64_t Profiler::samples() const {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.samples;
}

uint64_t Profiler::dropped() const {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return DroppedTotal() + state.corrupt_records;
}

uint32_t Profiler::hz() const {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.hz;
}

std::vector<FoldedStack> Profiler::ToFolded() {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  DrainLocked(state);
  // Symbolize each interned stack root-first and merge stacks that
  // collapse onto the same symbol sequence (distinct pcs inside one
  // function fold together).
  std::map<std::string, FoldedStack> merged;
  for (size_t id = 0; id < state.stacks.size(); ++id) {
    if (state.stack_counts[id] == 0) continue;
    const std::vector<uint64_t>& pcs = *state.stacks[id];
    std::vector<std::string> frames;
    frames.reserve(pcs.size());
    for (size_t i = pcs.size(); i > 0; --i) {
      frames.push_back(SymbolizeLocked(state, pcs[i - 1]));
    }
    std::string key;
    for (size_t i = 0; i < frames.size(); ++i) {
      if (i > 0) key.push_back(';');
      key += frames[i];
    }
    auto [it, inserted] = merged.emplace(std::move(key), FoldedStack{});
    if (inserted) it->second.frames = std::move(frames);
    it->second.count += state.stack_counts[id];
  }
  std::vector<FoldedStack> out;
  out.reserve(merged.size());
  for (auto& [key, stack] : merged) out.push_back(std::move(stack));
  return out;
}

std::string Profiler::ToFoldedText() {
  std::string out;
  for (const FoldedStack& stack : ToFolded()) {
    for (size_t i = 0; i < stack.frames.size(); ++i) {
      if (i > 0) out.push_back(';');
      out += stack.frames[i];
    }
    out.push_back(' ');
    out += std::to_string(stack.count);
    out.push_back('\n');
  }
  return out;
}

std::vector<SymbolCount> Profiler::TopSymbols(size_t n) {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  DrainLocked(state);
  return TopSymbolsLocked(state, n);
}

std::string Profiler::TopJson(size_t n) {
  // TopSymbols drains and takes the lock; re-read the totals afterwards.
  std::vector<SymbolCount> top = TopSymbols(n);
  const uint64_t total = samples();
  std::string out = "{\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"samples\": " + std::to_string(total) + ",\n";
  out += "  \"dropped\": " + std::to_string(dropped()) + ",\n";
  out += "  \"top\": [";
  for (size_t i = 0; i < top.size(); ++i) {
    if (i > 0) out += ",";
    const double pct =
        total > 0 ? 100.0 * static_cast<double>(top[i].samples) /
                        static_cast<double>(total)
                  : 0.0;
    out += "\n    {\"symbol\": \"" + JsonEscape(top[i].symbol) +
           "\", \"samples\": " + std::to_string(top[i].samples) +
           ", \"pct\": " + FormatPct(pct) + "}";
  }
  out += top.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

Status Profiler::WriteArtifacts(const std::string& dir) {
  Drain();
  if (samples() == 0) return Status::OK();
  FAIRGEN_RETURN_NOT_OK(
      WriteFileAtomic(dir + "/profile.folded", ToFoldedText()));
  return WriteFileAtomic(dir + "/profile_top.json", TopJson(20));
}

uint32_t HzFromEnv() {
  const char* env = std::getenv("FAIRGEN_PROF_HZ");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const unsigned long hz = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || hz == 0 || hz > 10000) return 0;
  return static_cast<uint32_t>(hz);
}

}  // namespace prof
}  // namespace fairgen
