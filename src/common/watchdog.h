#ifndef FAIRGEN_COMMON_WATCHDOG_H_
#define FAIRGEN_COMMON_WATCHDOG_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace fairgen {
namespace watchdog {

/// \brief Run-health watchdog: a declarative rule engine evaluated on the
/// telemetry Publisher tick against the metrics registry, the memory
/// probes, the span tracer and the event journal. Rules never touch model
/// state — they read the same observation-only surfaces every other
/// exporter reads — so an armed watchdog whose fatal rules never fire
/// leaves outputs bitwise identical at any thread count.
///
/// Built-in rules (DESIGN.md §11):
///   loss_non_finite  warn   `trainer.nonfinite_batches` increased — the
///                           trainer's loss-accumulation guard skipped a
///                           NaN/Inf batch
///   loss_exploding   warn   last `trainer.total_loss` point exceeds
///                           `explode_factor` x the best point
///   loss_plateau     warn   no new `trainer.total_loss` minimum in the
///                           last `plateau_cycles` recorded cycles
///   stage_stall      warn   no progress for `stall_ticks` consecutive
///                           ticks; progress counts `trainer.cycles`
///                           and the journal's `stage` (memprobe
///                           samples), checkpoint and probe events
///   rss_budget       fatal  process RSS above `rss_budget_mb` for
///                           `rss_debounce_ticks` consecutive ticks
///   spans_dropped    warn   tracer ring or profiler SPSC rings dropped
///                           records
///   fairness_drift   warn   last `probe.disparity_gap` point grew past
///                           `drift_factor` x the first recorded gap
///
/// Severity drives the action: `warn` emits an alert event and increments
/// `fairgen_alerts_total{rule=...}`; `fatal` does the same, then invokes
/// the fatal handler — by default `raise(SIGTERM)`, which enters the
/// PR 5 signal-flush path (emergency FGCKPT2 checkpoint, crash-flushed
/// telemetry + event journal, exit status 128+SIGTERM).

enum class Severity { kWarn, kFatal };

/// "warn" | "fatal".
const char* SeverityName(Severity severity);

/// \brief Watchdog configuration (CLI: `--watchdog`, `--rss-budget-mb`).
struct Options {
  /// Master switch; a disabled watchdog's `EvaluateTick` returns empty.
  bool enabled = false;

  /// RSS ceiling in MiB; 0 disables the `rss_budget` rule.
  uint64_t rss_budget_mb = 0;
  /// Consecutive breaching ticks before `rss_budget` fires. 1 fires on
  /// the first armed breach so even a single final-flush evaluation of a
  /// short run still catches a blowup.
  uint32_t rss_debounce_ticks = 1;
  /// Fatal rules hold fire until `trainer.cycles` reaches this count.
  /// The CLI sets 1 when checkpointing is on, so the emergency-checkpoint
  /// double buffer is primed before a fatal abort can fire.
  uint32_t fatal_arm_cycles = 0;

  /// `loss_plateau` window: recorded cycles without a new loss minimum.
  uint32_t plateau_cycles = 25;
  /// `loss_exploding` threshold relative to the best recorded loss.
  double explode_factor = 1000.0;
  /// `stage_stall` window in publisher ticks without any progress. A
  /// self-paced cycle emits nothing until it ends (its generator step is
  /// most of the cycle), so the window must outlast the longest cycle.
  uint32_t stall_ticks = 120;
  /// `fairness_drift`: relative growth factor of the disparity gap...
  double drift_factor = 2.0;
  /// ...with an absolute floor, so near-zero initial gaps don't alert on
  /// noise.
  double drift_min_gap = 0.05;
};

/// \brief One fired rule.
struct Alert {
  std::string rule;
  Severity severity = Severity::kWarn;
  std::string message;
  double epoch = -1.0;  ///< trainer.cycles at fire time
  double value = 0.0;   ///< rule-specific observed value
};

/// Emits one alert through the shared pathway: an `alert` event in the
/// journal, plus the `alerts.total` and `alerts.rule.<rule>` counters
/// that back the `fairgen_alerts_total{rule=...}` Prometheus family.
/// Does NOT run the fatal action — that is the rule engine's job.
void RaiseAlert(const Alert& alert,
                std::vector<std::pair<std::string, double>> fields = {});

/// \brief The process-wide rule engine.
class Watchdog {
 public:
  /// Created on first use, leaked on purpose (the Publisher tick may
  /// evaluate it during shutdown).
  static Watchdog& Global();

  /// Replaces the configuration and resets all rule state.
  void Configure(const Options& options);
  Options options() const;
  bool enabled() const;

  /// Replaces the fatal action (default: `raise(SIGTERM)`). Tests inject
  /// a flag-setter; pass nullptr to restore the default.
  void SetFatalHandler(void (*handler)());

  /// Evaluates every rule once and returns the alerts fired this tick
  /// (already raised through `RaiseAlert`). A fatal alert additionally
  /// invokes the fatal handler — at most once per process — after all
  /// internal locks are released. No-op (empty) while disabled.
  std::vector<Alert> EvaluateTick();

  /// Total alerts this engine fired since configure/reset.
  uint64_t alerts_fired() const;

  /// Re-arms every rule and clears the fired-fatal latch (tests only).
  void ResetForTest();

 private:
  Watchdog() = default;

  // Per-rule latch: `streak` counts consecutive breaching ticks,
  // `fired` suppresses refiring inside one breach episode, `marker`
  // tracks the last acknowledged value of a monotone signal.
  struct RuleState {
    uint32_t streak = 0;
    bool fired = false;
    double marker = 0.0;
  };

  mutable std::mutex mu_;
  Options options_;          // guarded by mu_
  RuleState nonfinite_;      // guarded by mu_
  RuleState exploding_;      // guarded by mu_
  RuleState plateau_;        // guarded by mu_
  RuleState stall_;          // guarded by mu_
  RuleState rss_;            // guarded by mu_
  RuleState dropped_;        // guarded by mu_
  RuleState drift_;          // guarded by mu_
  bool fatal_invoked_ = false;  // guarded by mu_
  uint64_t alerts_fired_ = 0;   // guarded by mu_
  void (*fatal_handler_)() = nullptr;  // guarded by mu_
};

}  // namespace watchdog
}  // namespace fairgen

#endif  // FAIRGEN_COMMON_WATCHDOG_H_
