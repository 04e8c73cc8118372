#ifndef FAIRGEN_COMMON_PROF_H_
#define FAIRGEN_COMMON_PROF_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace fairgen {
namespace prof {

/// \brief In-process sampling profiler (DESIGN.md §10). Opt-in and off by
/// default: until `Profiler::Start` runs, no SIGPROF handler is installed —
/// the off state is bitwise free and pinned by the off-by-default
/// invariant tests.
///
/// Sampling is observation-only (no `Rng` draws, no chunk-layout changes,
/// no synchronization beyond the profiler's own atomics — the determinism
/// suite holds at 1/2/4 threads with profiling on):
/// `setitimer(ITIMER_PROF)` delivers SIGPROF to whichever thread is
/// burning CPU; the handler captures a `backtrace` into a lock-free SPSC
/// ring claimed by that thread from a preallocated pool (no malloc, no
/// locks — the handler is async-signal-safe). The telemetry Publisher (or
/// any caller) drains the rings off the signal path, symbolizes program
/// counters via `dladdr`, and aggregates collapsed stacks.
///
/// Exports: `profile.folded` (collapsed stacks, flamegraph.pl/speedscope
/// compatible), `profile_top.json` (symbolized top-N self-sample table),
/// and `prof.*` metrics (`prof.samples`, `prof.samples_dropped`,
/// `prof.hz`).

/// \brief One aggregated collapsed stack: `frames` are symbolized,
/// root-first (the flamegraph convention), `count` is how many samples
/// landed there.
struct FoldedStack {
  std::vector<std::string> frames;
  uint64_t count = 0;
};

/// \brief One row of the top-N table: self samples attributed to the leaf
/// symbol.
struct SymbolCount {
  std::string symbol;
  uint64_t samples = 0;
};

/// \brief `Profiler::Start` configuration.
struct ProfilerOptions {
  /// Samples per second of *CPU time* (ITIMER_PROF counts process CPU, so
  /// idle threads are never sampled). A prime default decorrelates the
  /// timer from millisecond-periodic work.
  uint32_t hz = 97;
  /// Frames kept per sample after dropping the handler/trampoline frames.
  uint32_t max_stack_depth = 48;
};

/// \brief Process-wide sampling profiler. Leaked singleton, same rule as
/// the tracer: the SIGPROF handler may fire on any thread at any point of
/// shutdown, so the profiler must never be destroyed.
class Profiler {
 public:
  static Profiler& Global();

  /// Installs the SIGPROF handler and arms the CPU-time timer.
  /// `FailedPrecondition` when already running,
  /// `InvalidArgument` for hz outside [1, 10000]. Starting resets all
  /// previously aggregated samples.
  Status Start(const ProfilerOptions& options);

  /// Disarms the timer and drains any samples still in the rings. The
  /// handler stays installed as a gated no-op: restoring SIG_DFL while a
  /// final SIGPROF is still pending would terminate the process.
  /// Idempotent. The aggregated profile stays readable
  /// (ToFolded/TopSymbols/WriteArtifacts) until the next Start.
  void Stop();

  /// True between Start and Stop. One relaxed load.
  bool running() const;

  /// Moves every completed sample out of the per-thread rings into the
  /// profiler's aggregate (interned stacks with per-stack counts).
  /// Called by the telemetry Publisher every tick, by Stop, and lazily by
  /// the export functions; safe from any thread (consumer side of the
  /// SPSC rings is serialized by the profiler mutex).
  void Drain();

  /// Samples aggregated so far (after the last Start).
  uint64_t samples() const;
  /// Samples lost to full rings or ring-pool exhaustion.
  uint64_t dropped() const;
  /// The Hz the profiler is (or was last) running at, 0 before any Start.
  uint32_t hz() const;

  /// Collapsed stacks, root-first, sorted by joined stack string (stable
  /// across runs for tests). Drains first.
  std::vector<FoldedStack> ToFolded();

  /// flamegraph.pl / speedscope input: one `frame;frame;... count` line
  /// per distinct stack. Drains first.
  std::string ToFoldedText();

  /// Top-`n` symbols by leaf self-samples, descending (ties broken by
  /// symbol name). Drains first.
  std::vector<SymbolCount> TopSymbols(size_t n);

  /// `{"schema_version": 1, "samples": ..., "dropped": ...,
  ///   "top": [{"symbol", "samples", "pct"}, ...]}`
  std::string TopJson(size_t n);

  /// Writes `profile.folded` and `profile_top.json` into `dir`
  /// (atomically, like every telemetry artifact). No-op success when no
  /// samples were collected — a run that never burned CPU produces no
  /// profile, not an empty-file surprise.
  Status WriteArtifacts(const std::string& dir);

 private:
  Profiler() = default;
};

/// \brief Sampling rate from `FAIRGEN_PROF_HZ`, or 0 when unset/invalid —
/// the env half of the `--profile-hz` plumbing.
uint32_t HzFromEnv();

}  // namespace prof
}  // namespace fairgen

#endif  // FAIRGEN_COMMON_PROF_H_
