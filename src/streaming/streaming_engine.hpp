// Streaming solve engine: windowed, warm-started re-solves over a growing
// trace.
//
// The paper's reconfiguration problems are stated offline — the whole
// context-requirement trace is known before the solve.  Serving live
// traffic inverts that: tasks issue requirements step-by-step, and the
// published schedule must stay valid for every step seen so far while being
// refreshed cheaply.  The classic results on run-time reconfiguration
// (online prefetch scheduling, incremental window-bounded decisions) say
// the win comes from *not* re-solving from scratch; this engine implements
// that recipe on top of the existing stack:
//
//   trace grows ──► MultiTaskTraceStats::append_step (one row per table
//        │          level per step; O(1) pre-checks)
//        │
//        ├── triggers: step count / demand spike (O(1) range-max) /
//        │             rent-or-buy policy (online/) / wall-clock tick
//        ▼
//   re-solve the last `window` steps with the portfolio, warm-started from
//   the previous window's schedule (and the solve cache's window-shape
//   warm-start index when one is attached)
//        ▼
//   splice: published boundaries before the window stay frozen (the stable
//   prefix), the fresh window schedule is shifted onto [w_lo, n) — one
//   valid MultiTaskSchedule over the whole trace, swapped in atomically
//   (a failed or cancelled window solve never tears the published schedule).
//
// Between re-solves an appended step simply extends every task's last
// interval, so the published schedule always covers [0, steps()).
//
// The engine keeps its MultiTaskTrace and one MultiTaskTraceStats
// (model/trace_stats.hpp) and appends each step to both: the triggers read
// the tables, each window instance is a slice of the trace, and every
// spliced schedule is priced on the tables without rebuilding them.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/solve_cache.hpp"
#include "engine/portfolio.hpp"
#include "model/instance.hpp"
#include "online/rent_or_buy.hpp"
#include "support/cancel.hpp"

namespace hyperrec::streaming {

/// Why a window re-solve ran.
enum class TriggerKind : std::uint8_t {
  kInitial,      ///< first appended step
  kQuotaRepair,  ///< the growing last quota block overflowed the pool
  kStepCount,    ///< `every_steps` new steps accumulated
  kDemandSpike,  ///< a step's cross-task demand sum spiked vs the last window
  kRentOrBuy,    ///< a per-task rent-or-buy controller bought a re-fit
  kDeadlineTick, ///< wall-clock budget since the last solve elapsed
  kFlush,        ///< explicit flush() at stream end
};

[[nodiscard]] const char* to_string(TriggerKind kind) noexcept;

struct TriggerConfig {
  /// Re-solve every N appended steps; 0 disables.
  std::size_t every_steps = 0;
  /// Re-solve when a fresh step's cross-task private-demand sum exceeds
  /// `spike_factor` x the maximum sum over the trailing `window` steps
  /// before it (an O(1) range-max pre-check on the appended stats).
  /// The baseline tracks the *current* trailing window, not the last
  /// solved one — a frozen baseline goes stale after a quiet stretch and
  /// turns every post-lull demand step into a re-solve storm.  0 disables.
  double spike_factor = 0.0;
  /// Absolute floor for the spike trigger: a fresh step's demand sum below
  /// this never fires, however small the baseline (a zero baseline would
  /// otherwise fire on any positive sum).
  std::uint32_t spike_min_demand = 1;
  /// Re-solve when any task's online rent-or-buy controller performs a
  /// (non-initial) hyperreconfiguration at the appended step.
  bool rent_or_buy = false;
  online::RentOrBuyConfig rent_or_buy_config;
  /// Re-solve when this much wall time passed since the last solve and at
  /// least one new step arrived; 0 disables.
  std::chrono::milliseconds tick{0};
};

struct StreamingConfig {
  /// Solve window: each re-solve covers the last `window` steps (all steps
  /// while the trace is shorter).  Must be at least 1.
  std::size_t window = 256;
  TriggerConfig trigger;
  /// Portfolio used for the window solves.  Runs serially inside the
  /// engine (windows are small; batch jobs are the unit of parallelism).
  engine::PortfolioConfig portfolio;
  /// Optional solve cache: window instances are memoized by content
  /// fingerprint (repeated windows across streams hit), and its
  /// window-shape warm-start index seeds solves that have no previous
  /// window to inherit from.
  std::shared_ptr<cache::SolveCache> cache;
  /// Seed each re-solve with the previous window's schedule (falling back
  /// to the cache's same-shape incumbent).
  bool warm_start = true;
  /// Allow the cache's shape-keyed warm-start index as the fallback seed
  /// when there is no published schedule yet.  The StreamMultiplexer turns
  /// this off: an index seed depends on what OTHER streams solved recently,
  /// and a fleet-tenant stream must publish bit-identically to a solo run.
  bool cache_warm_start = true;
  /// Engine-wide cancellation: a fired token makes re-solves no-ops (the
  /// previously published schedule stays intact and valid).
  CancelToken cancel;
};

/// One window re-solve, for diagnostics and io/result_json v3.
struct WindowReport {
  std::size_t index = 0;  ///< re-solve ordinal, 0-based
  TriggerKind trigger = TriggerKind::kInitial;
  std::size_t window_lo = 0;  ///< solved steps [window_lo, window_hi)
  std::size_t window_hi = 0;
  bool ok = false;
  std::string error;   ///< exception text when !ok
  /// Portfolio member behind the window; "cache" on a verified cache hit;
  /// "coalesced" when the window piggybacked on another stream's in-flight
  /// solve of the same (instance, seed) without running a member itself.
  std::string winner;
  /// How the attached solve cache satisfied the window (nullopt when no
  /// cache was attached or the solve failed before the lookup).
  std::optional<cache::CacheOutcome> cache;
  /// A seed reached a member that reads it (PortfolioResult::warm_started).
  bool warm_started = false;
  std::chrono::microseconds elapsed{0};  ///< window solve wall time
  Cost window_cost = 0;     ///< portfolio best over the window alone
  Cost published_cost = 0;  ///< spliced full-schedule cost after publishing
  /// Boundaries frozen from the stable prefix (summed over tasks).
  std::size_t splice_prefix_boundaries = 0;
};

/// Grows a synchronized multi-task trace step-by-step and keeps a valid
/// published schedule over everything seen so far, re-solving a sliding
/// window on configurable triggers.  Not thread-safe; one stream per engine.
class StreamingEngine {
 public:
  StreamingEngine(MachineSpec machine, EvalOptions options,
                  StreamingConfig config = {});

  /// Appends one synchronized step (requirement j goes to task j), runs the
  /// trigger checks, and re-solves the window when one fires.  Returns true
  /// iff a window re-solve ran (successfully or not — see windows().back()).
  bool append_step(std::vector<ContextRequirement> step);

  /// Forces a final window re-solve when steps arrived since the last one.
  /// Returns true iff a re-solve ran.
  bool flush();

  // Deferred-sequencing hooks for external drivers (the StreamMultiplexer
  // runs window re-solves as pool jobs instead of inline).  The engine
  // stays single-sequenced: the driver must not interleave other mutations
  // between a latched trigger and its resolve_pending() call — that is
  // exactly the state the solo append_step path would have solved, which
  // is what makes a multiplexed stream bit-identical to a solo one.

  /// append_step, except a fired trigger is latched and returned instead
  /// of re-solving inline.  Requires no trigger already pending.
  std::optional<TriggerKind> append_step_deferred(
      std::vector<ContextRequirement> step);

  /// flush(), deferred: latches kFlush when steps are pending since the
  /// last re-solve; returns the latched trigger or nullopt when idle.
  std::optional<TriggerKind> request_flush();

  /// The trigger latched by the deferred hooks, if any.
  [[nodiscard]] std::optional<TriggerKind> pending_trigger() const noexcept {
    return pending_trigger_;
  }

  /// Runs the latched window re-solve under `cancel` (the driver links its
  /// per-job token to the engine-wide one) and clears the latch.
  void resolve_pending(const CancelToken& cancel);

  [[nodiscard]] std::size_t steps() const { return trace_.steps(); }
  [[nodiscard]] const MultiTaskTrace& trace() const noexcept { return trace_; }
  /// The interval tables over trace(), appended to with every step; equal
  /// to MultiTaskTraceStats(trace()).
  [[nodiscard]] const MultiTaskTraceStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const MachineSpec& machine() const noexcept {
    return machine_;
  }

  /// The published schedule; covers [0, steps()) and validates (shape-wise)
  /// once at least one step has been appended.
  [[nodiscard]] const MultiTaskSchedule& schedule() const noexcept {
    return published_;
  }

  /// Published schedule evaluated over the full trace seen so far (reuses
  /// the breakdown computed by the last re-solve when no steps arrived
  /// since).  On machines with private-global resources the §4.2 evaluator
  /// additionally enforces per-block quota feasibility: the engine forces a
  /// repair re-solve (TriggerKind::kQuotaRepair) the moment the growing
  /// last block overflows the pool, but while that repair window itself is
  /// infeasible for the solver line-up (every standard solver keeps one
  /// global block per instance) this call throws, exactly as an offline
  /// solve of the same trace would.
  [[nodiscard]] MTSolution current_solution() const;

  /// One report per window re-solve, in order.
  [[nodiscard]] const std::vector<WindowReport>& windows() const noexcept {
    return windows_;
  }
  [[nodiscard]] std::size_t resolve_count() const noexcept {
    return windows_.size();
  }

 private:
  /// Shared append path: validates, feeds the controllers and stats, runs
  /// the trigger checks in priority order; returns the first firing trigger.
  std::optional<TriggerKind> ingest(std::vector<ContextRequirement> step);
  void resolve_window(TriggerKind trigger, const CancelToken& cancel);
  [[nodiscard]] MultiTaskSchedule warm_seed(std::size_t lo,
                                            std::size_t hi) const;

  MachineSpec machine_;
  EvalOptions options_;
  StreamingConfig config_;

  MultiTaskTrace trace_;  ///< every step appended so far
  MultiTaskTraceStats stats_;
  MultiTaskSchedule published_;  ///< covers [0, steps()) once non-empty
  /// Breakdown of published_ over the full trace, computed by the last
  /// successful re-solve; cleared by every append (the extended schedule
  /// has a different cost).  Saves current_solution() a full re-evaluation
  /// right after a re-solve — the flush-then-report path of BatchEngine.
  std::optional<CostBreakdown> published_breakdown_;
  std::vector<WindowReport> windows_;
  std::vector<online::RentOrBuyScheduler> rent_or_buy_;

  std::size_t pending_ = 0;  ///< steps appended since the last re-solve ran
  std::optional<TriggerKind> pending_trigger_;  ///< deferred-mode latch
  /// Tick-trigger baseline: armed on first ingest (an engine may be built
  /// long before traffic arrives), re-armed by every successful re-solve.
  std::chrono::steady_clock::time_point last_solve_{};
};

}  // namespace hyperrec::streaming
