#include "common/watchdog.h"

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/events.h"
#include "common/logging.h"
#include "common/memprobe.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace fairgen {
namespace watchdog {

namespace {

std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return std::string(buf);
}

uint64_t SteadyMillis() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void DefaultFatalHandler() {
  // SIGTERM enters the installed signal-flush path: emergency checkpoint
  // (when a trainer is live), crash-flushed telemetry + event journal,
  // then SIG_DFL re-raise so the wait status reports 128+SIGTERM.
  ::raise(SIGTERM);
}

// Emits one alert: an `alert` journal event, its only record, and a log
// line. The fatal action is the rule engine's job.
void RaiseAlert(const Alert& alert) {
  events::Event event;
  event.type = events::Type::kAlert;
  event.name = alert.rule;
  event.severity = alert.severity == Severity::kFatal ? "fatal" : "warn";
  event.message = alert.message;
  event.epoch = alert.epoch;
  event.fields = {{"value", alert.value}};
  events::Journal::Global().Emit(std::move(event));

  if (alert.severity == Severity::kFatal) {
    FAIRGEN_LOG(ERROR) << "watchdog[" << alert.rule
                       << "] FATAL: " << alert.message;
  } else {
    FAIRGEN_LOG(WARNING) << "watchdog[" << alert.rule
                         << "] warn: " << alert.message;
  }
}

}  // namespace

Watchdog& Watchdog::Global() {
  static Watchdog* watchdog = new Watchdog();
  return *watchdog;
}

void Watchdog::Configure(const Options& options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  nonfinite_ = RuleState{};
  exploding_ = RuleState{};
  plateau_ = RuleState{};
  stall_ = RuleState{};
  stall_since_ms_ = 0;
  rss_ = RuleState{};
  dropped_ = RuleState{};
  drift_ = DriftState{};
  fatal_invoked_ = false;
}

void Watchdog::SetFatalHandler(void (*handler)()) {
  std::lock_guard<std::mutex> lock(mu_);
  fatal_handler_ = handler;
}

void Watchdog::ResetForTest() {
  Options options;
  {
    std::lock_guard<std::mutex> lock(mu_);
    options = options_;
  }
  Configure(options);
}

std::vector<Alert> Watchdog::EvaluateTick() {
  std::vector<Alert> fired;
  void (*fatal_action)() = nullptr;
  {
    std::unique_lock<std::mutex> lock = metrics::BestEffortLock(mu_);
    if (!lock.owns_lock() || !options_.enabled) return fired;

    metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
    const double epoch =
        static_cast<double>(registry.GetCounter("trainer.cycles").value());

    // loss_non_finite: the trainer's accumulation guard counts skipped
    // NaN/Inf batches; any increase fires once per increase.
    {
      const double count = static_cast<double>(
          registry.GetCounter("trainer.nonfinite_batches").value());
      if (count > nonfinite_.marker) {
        fired.push_back(
            {"loss_non_finite", Severity::kWarn,
             "trainer skipped " + FormatValue(count - nonfinite_.marker) +
                 " non-finite loss batch(es), " + FormatValue(count) +
                 " total",
             epoch, count});
        nonfinite_.marker = count;
      }
    }

    // loss_exploding / loss_plateau read the per-cycle total-loss curve.
    {
      const auto points =
          registry.GetSeries("trainer.total_loss").points();
      if (points.size() >= 2) {
        double best = points[0].second;
        double best_before_window = points[0].second;
        const size_t window =
            std::min<size_t>(options_.plateau_cycles, points.size() - 1);
        for (size_t i = 0; i < points.size(); ++i) {
          best = std::min(best, points[i].second);
          if (i < points.size() - window) {
            best_before_window =
                std::min(best_before_window, points[i].second);
          }
        }
        const double last = points.back().second;
        const double explode_limit =
            options_.explode_factor * std::max(std::fabs(best), 1.0);
        if (last > explode_limit) {
          if (!exploding_.fired) {
            fired.push_back({"loss_exploding", Severity::kWarn,
                             "total loss " + FormatValue(last) +
                                 " exceeds " +
                                 FormatValue(options_.explode_factor) +
                                 "x the best recorded loss " +
                                 FormatValue(best),
                             epoch, last});
            exploding_.fired = true;
          }
        } else {
          exploding_.fired = false;  // re-arm on recovery
        }
        if (points.size() >= options_.plateau_cycles + 1 &&
            best >= best_before_window) {
          // No point in the trailing window improved on the history
          // before it: the minimum predates the window.
          if (!plateau_.fired) {
            fired.push_back(
                {"loss_plateau", Severity::kWarn,
                 "no total-loss improvement in the last " +
                     std::to_string(options_.plateau_cycles) +
                     " recorded cycles (best " + FormatValue(best) + ")",
                 epoch, last});
            plateau_.fired = true;
          }
        } else {
          plateau_.fired = false;
        }
      }
    }

    // stage_stall: progress signature from cycle count plus journal
    // stage/checkpoint/probe records. Armed only after some progress
    // exists, so an idle pre-training tick never counts as a stall.
    {
      const events::Journal& journal = events::Journal::Global();
      const double progress =
          epoch +
          static_cast<double>(journal.TypeCount(events::Type::kStage) +
                              journal.TypeCount(events::Type::kCheckpoint) +
                              journal.TypeCount(events::Type::kProbe));
      const uint64_t now_ms = SteadyMillis();
      if (progress != stall_.marker) {
        stall_.marker = progress;
        stall_since_ms_ = now_ms;
        stall_.fired = false;
      } else if (progress > 0.0 &&
                 now_ms - stall_since_ms_ >= options_.stall_window_ms &&
                 !stall_.fired) {
        fired.push_back({"stage_stall", Severity::kWarn,
                         "no stage/cycle progress for " +
                             FormatValue((now_ms - stall_since_ms_) / 1e3) +
                             " s",
                         epoch, progress});
        stall_.fired = true;
      }
    }

    // rss_budget (fatal): debounced, and optionally held until the
    // trainer has completed `fatal_arm_cycles` cycles so the emergency
    // checkpoint buffer is primed before an abort can fire.
    if (options_.rss_budget_mb > 0) {
      const double rss_mb =
          static_cast<double>(memprobe::CurrentRssBytes()) / (1024.0 * 1024.0);
      const bool armed =
          epoch >= static_cast<double>(options_.fatal_arm_cycles);
      if (rss_mb > static_cast<double>(options_.rss_budget_mb) && armed) {
        ++rss_.streak;
        if (rss_.streak >= options_.rss_debounce_ticks && !rss_.fired) {
          fired.push_back({"rss_budget", Severity::kFatal,
                           "RSS " + FormatValue(rss_mb) +
                               " MiB above budget " +
                               std::to_string(options_.rss_budget_mb) +
                               " MiB for " + std::to_string(rss_.streak) +
                               " tick(s)",
                           epoch, rss_mb});
          rss_.fired = true;
        }
      } else {
        rss_.streak = 0;
      }
    }

    // spans_dropped: observability self-check — the span ring or the
    // profiler SPSC rings overflowed, so traces/profiles are incomplete.
    {
      const double total_dropped =
          static_cast<double>(trace::Tracer::Global().dropped()) +
          static_cast<double>(
              registry.GetCounter("prof.samples_dropped").value()) +
          static_cast<double>(events::Journal::Global().dropped());
      if (total_dropped > dropped_.marker) {
        fired.push_back({"spans_dropped", Severity::kWarn,
                         FormatValue(total_dropped) +
                             " span/sample/event record(s) dropped",
                         epoch, total_dropped});
        dropped_.marker = total_dropped;
      }
    }

    // fairness_drift: the live disparity gap (protected minus overall
    // walk NLL, journaled by the trainer's periodic probe) grew past
    // `drift_factor` x the first recorded gap. The publisher evaluates
    // before it flushes what was pending, so every probe passes here.
    {
      events::Journal::Global().VisitPending(
          events::Type::kProbe, [this](const events::Event& probe) {
            const double* gap = probe.Field("disparity_gap");
            if (gap == nullptr) return;
            if (!drift_.seen) drift_.first_gap = *gap;
            drift_.seen = true;
            drift_.last_gap = *gap;
          });
      // A single probe is its own reference, so it never drifts.
      if (drift_.seen) {
        const double first = drift_.first_gap;
        const double last = drift_.last_gap;
        const double growth_limit = std::max(
            options_.drift_min_gap,
            (options_.drift_factor - 1.0) * std::fabs(first));
        if (last - first > growth_limit) {
          if (!drift_.fired) {
            fired.push_back({"fairness_drift", Severity::kWarn,
                             "disparity gap drifted from " +
                                 FormatValue(first) + " to " +
                                 FormatValue(last),
                             epoch, last});
            drift_.fired = true;
          }
        } else {
          drift_.fired = false;
        }
      }
    }

    for (const Alert& alert : fired) {
      if (alert.severity == Severity::kFatal && !fatal_invoked_) {
        fatal_invoked_ = true;
        fatal_action =
            fatal_handler_ != nullptr ? fatal_handler_ : &DefaultFatalHandler;
      }
    }
  }

  // Raise outside the engine lock: RaiseAlert takes the journal lock, and
  // the fatal action re-enters telemetry via the signal path.
  for (const Alert& alert : fired) RaiseAlert(alert);
  if (fatal_action != nullptr) fatal_action();
  return fired;
}

}  // namespace watchdog
}  // namespace fairgen
