// MT-Switch cost model evaluators (paper §2 "Switch model", §4.1, §4.2).
//
// Cost semantics
// --------------
// * A task's hypercontext during an interval is minimal: the union of the
//   local requirements in the interval plus (for private-global resources)
//   the maximum private demand in the interval.  Larger hypercontexts are
//   never cheaper under the switch cost |h| = number of switches, so the
//   evaluators always use the minimal ones.  derive_local_hypercontexts()
//   exposes them for figures and tests.
// * Fully synchronised machine (§4.2): every step carries
//       hyper_term(l)    = combine_{j ∈ A_l} v_j          (A_l = tasks with a
//                                                           boundary at l)
//     + reconfig_term(l) = combine'_j (|h_j^loc(l)| + h_j^priv(l)),  with the
//       public context |h^pub| entering the combine' (max with it when
//       task-parallel, added when task-sequential),
//   where combine is max for task-parallel upload and Σ for task-sequential
//   (§4: "task parallel"/"task sequentially").  The SHyRA experiment of §6
//   uses task-parallel partial hyperreconfigurations and task-sequential
//   reconfigurations — the only combination consistent with the paper's
//   quoted baseline 110·48 = 5280 (see EXPERIMENTS.md).
// * Global hyperreconfigurations add w each and require a simultaneous local
//   boundary in every task (§3: the old extended local hypercontexts become
//   invalid).  Machines without global resources perform none and pay no w.
// * Changeover variant (§4.1 end): a local hyperreconfiguration of task j
//   additionally costs |h_new Δ h_old| on top of v_j (difference information
//   loaded onto the machine); the first hypercontext diffs against ∅.
// * The "hyperreconfiguration disabled" baseline of §6 is a machine that is
//   one monolithic context: every step costs |X| = total_switches().
#pragma once

#include <algorithm>
#include <vector>

#include "model/machine.hpp"
#include "model/schedule.hpp"
#include "model/trace.hpp"
#include "model/types.hpp"
#include "support/cost_math.hpp"
#include "support/ensure.hpp"

namespace hyperrec {

class SolveInstance;        // model/instance.hpp
class MultiTaskTraceStats;  // model/trace_stats.hpp

struct EvalOptions {
  UploadMode hyper_upload = UploadMode::kTaskParallel;
  UploadMode reconfig_upload = UploadMode::kTaskSequential;
  bool changeover = false;
};

/// Hypercontext (minimal) of one task for one schedule interval.
struct LocalHypercontext {
  DynamicBitset local;           ///< union of local requirements
  std::uint32_t private_avail;   ///< max private demand (|h^priv|)
};

/// hypercontexts[j][k] = minimal hypercontext of task j in its interval k.
/// Builds a one-off stats view internally; prefer the stats overload when a
/// SolveInstance (or its MultiTaskTraceStats) is already in hand.
[[nodiscard]] std::vector<std::vector<LocalHypercontext>>
derive_local_hypercontexts(const MultiTaskTrace& trace,
                           const MultiTaskSchedule& schedule);

/// As above, but queries the precomputed stats views — O(words) per
/// interval instead of O(range·words).
[[nodiscard]] std::vector<std::vector<LocalHypercontext>>
derive_local_hypercontexts(const MultiTaskTraceStats& stats,
                           const MultiTaskSchedule& schedule);

struct CostBreakdown {
  Cost total = 0;
  Cost hyper = 0;         ///< partial (local) hyperreconfiguration cost
  Cost reconfig = 0;      ///< ordinary reconfiguration cost
  Cost global_hyper = 0;  ///< Σ w over global hyperreconfigurations
  std::size_t partial_hyper_steps = 0;  ///< steps where some task hyperreconfigures
};

/// §4.2 evaluator for fully synchronised machines.  Requires a synchronized
/// trace; validates the schedule, the private-global quota feasibility and
/// the machine/trace shapes.  Builds a one-off stats view internally; the
/// SolveInstance overload below reuses the instance's shared precomputation
/// and is the hot-path entry point.
[[nodiscard]] CostBreakdown evaluate_fully_sync_switch(
    const MultiTaskTrace& trace, const MachineSpec& machine,
    const MultiTaskSchedule& schedule, const EvalOptions& options = {});

/// Instance-backed §4.2 evaluator: identical semantics (bit-identical
/// CostBreakdown), but every interval union/demand query hits the
/// instance's precomputed tables.
[[nodiscard]] CostBreakdown evaluate_fully_sync_switch(
    const SolveInstance& instance, const MultiTaskSchedule& schedule);

namespace detail {

/// Per-step combine: max for task-parallel upload, Σ for task-sequential.
/// The Σ saturates at ±kCostInfinity (support/cost_math.hpp), as the DPs do.
[[nodiscard]] inline Cost combine(UploadMode mode, Cost acc, Cost value) {
  return mode == UploadMode::kTaskParallel ? std::max(acc, value)
                                           : cost_add(acc, value);
}

/// Cost of task j's local hyperreconfiguration into interval k, including
/// the optional changeover term against the previous hypercontext (the
/// first one diffs against ∅).
[[nodiscard]] inline Cost local_hyper_cost(
    const MachineSpec& machine, std::size_t j,
    const std::vector<DynamicBitset>& unions, std::size_t k, bool changeover) {
  Cost cost = machine.tasks[j].local_init;
  if (changeover) {
    const DynamicBitset& current = unions[k];
    cost = cost_add(
        cost, static_cast<Cost>(
                  k == 0 ? current.count()
                         : current.symmetric_difference_count(unions[k - 1])));
  }
  return cost;
}

/// The body of evaluate_fully_sync_switch over any stats view of a
/// synchronized trace: MultiTaskTraceStats for solves, the streaming
/// engine's incrementally maintained TraceBuilderStats for splices.  The
/// view answers task(j).local_union{,_count}, task(j).max_private_demand,
/// max_step_demand_sum, block_quota_sum and trace(); every evaluation —
/// shape, schedule and quota validation included — reads nothing else, so
/// the CostBreakdown is the same for every view over the same trace.
template <typename Stats>
[[nodiscard]] CostBreakdown evaluate_fully_sync(
    const Stats& stats, const MachineSpec& machine,
    const MultiTaskSchedule& schedule, const EvalOptions& options) {
  const MultiTaskTrace& trace = stats.trace();
  machine.validate_trace(trace);
  HYPERREC_ENSURE(trace.synchronized(),
                  "fully synchronised evaluation requires equal-length traces");
  const std::size_t n = trace.steps();
  const std::size_t m = trace.task_count();
  schedule.validate(m, n);
  const std::vector<std::size_t>& bounds = schedule.global_boundaries;
  if (machine.has_global_resources()) {
    HYPERREC_ENSURE(!bounds.empty() && bounds.front() == 0,
                    "machines with global resources need a global "
                    "hyperreconfiguration at step 0");
  } else {
    HYPERREC_ENSURE(bounds.empty(),
                    "machines without global resources cannot perform global "
                    "hyperreconfigurations");
  }

  // §3 quota rule: within every global block the per-task private quotas
  // must fit into the machine's pool of g units.  Block bounds [lo, hi) are
  // walked without materialising a boundary vector — the exhaustive and
  // coordinate-descent loops evaluate millions of schedules.
  if (const std::uint64_t pool = machine.private_global_units; pool > 0) {
    const std::size_t blocks = bounds.empty() ? 1 : bounds.size();
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t lo = bounds.empty() ? 0 : bounds[b];
      const std::size_t hi = (b + 1 < bounds.size()) ? bounds[b + 1] : n;
      // The per-step demand sum is a lower bound on the quota sum, so the
      // O(1) cross-task query short-circuits clearly infeasible blocks.
      HYPERREC_ENSURE(stats.max_step_demand_sum(lo, hi) <= pool &&
                          stats.block_quota_sum(lo, hi) <= pool,
                      "private-global demand exceeds the unit pool within a "
                      "global block; insert a global hyperreconfiguration");
    }
  }

  // Per task: interval sizes |U| + priv from the stats views, flattened into
  // one arena indexed by a per-task offset + interval cursor (one allocation
  // instead of one per task).  Union bitsets are materialised only under
  // changeover (the Δ term needs the actual sets).
  struct TaskCursor {
    std::size_t offset = 0;  ///< task's first entry in flat_sizes
    std::size_t k = 0;       ///< interval index at the current step
  };
  std::vector<TaskCursor> cursors(m);
  std::size_t total_intervals = 0;
  for (std::size_t j = 0; j < m; ++j) {
    total_intervals += schedule.tasks[j].interval_count();
  }
  std::vector<Cost> flat_sizes;
  flat_sizes.reserve(total_intervals);
  std::vector<std::vector<DynamicBitset>> unions(options.changeover ? m : 0);
  for (std::size_t j = 0; j < m; ++j) {
    const auto& task = stats.task(j);
    const Partition& partition = schedule.tasks[j];
    cursors[j].offset = flat_sizes.size();
    if (options.changeover) unions[j].reserve(partition.interval_count());
    for (std::size_t k = 0; k < partition.interval_count(); ++k) {
      const auto [start, end] = partition.interval_bounds(k);
      flat_sizes.push_back(
          static_cast<Cost>(task.local_union_count(start, end)) +
          static_cast<Cost>(task.max_private_demand(start, end)));
      if (options.changeover) unions[j].push_back(task.local_union(start, end));
    }
  }

  CostBreakdown breakdown;
  for (std::size_t l = 0; l < n; ++l) {
    bool any_boundary = false;
    Cost hyper_term = 0;
    // |h^pub| participates in the max for task-parallel upload and is added
    // once for task-sequential — both are the combine starting value.
    Cost reconfig_term = static_cast<Cost>(machine.public_context_size);

    for (std::size_t j = 0; j < m; ++j) {
      const Partition& partition = schedule.tasks[j];
      // The cursor knows the next boundary (starts are sorted and walked in
      // step order), so no per-step binary search.
      const std::size_t next = cursors[j].k + 1;
      const bool boundary =
          l == 0 || (next < partition.interval_count() &&
                     partition.starts()[next] == l);
      if (boundary && l > 0) cursors[j].k = next;
      const std::size_t k = cursors[j].k;
      if (boundary) {
        any_boundary = true;
        hyper_term = combine(
            options.hyper_upload, hyper_term,
            options.changeover
                ? local_hyper_cost(machine, j, unions[j], k, true)
                : machine.tasks[j].local_init);
      }
      reconfig_term = combine(options.reconfig_upload, reconfig_term,
                              flat_sizes[cursors[j].offset + k]);
    }

    if (any_boundary) ++breakdown.partial_hyper_steps;
    breakdown.hyper = cost_add(breakdown.hyper, hyper_term);
    breakdown.reconfig = cost_add(breakdown.reconfig, reconfig_term);
    if (std::binary_search(bounds.begin(), bounds.end(), l)) {
      breakdown.global_hyper =
          cost_add(breakdown.global_hyper, machine.global_init);
    }
  }
  // Saturating sums: a total beyond the sentinel reads as kCostInfinity
  // instead of wrapping.
  breakdown.total = cost_add(cost_add(breakdown.hyper, breakdown.reconfig),
                             breakdown.global_hyper);
  return breakdown;
}

}  // namespace detail

struct AsyncCostBreakdown {
  Cost total = 0;
  std::vector<Cost> per_task;  ///< Σ_i (v_j + cost·|S_{j,i}|) per task
  Cost global_hyper = 0;
};

/// §4.1 evaluator for non-synchronised machines: the tasks' reconfiguration
/// work overlaps, so the machine-level cost is the per-task maximum.  Task
/// traces may have different lengths.  Public resources must be absent (§3:
/// they exist only on context-/fully-synchronised machines).  Single global
/// block (at most one global hyperreconfiguration, at the start).
[[nodiscard]] AsyncCostBreakdown evaluate_async_switch(
    const MultiTaskTrace& trace, const MachineSpec& machine,
    const MultiTaskSchedule& schedule, const EvalOptions& options = {});

/// Instance-backed §4.1 evaluator (shared precomputation, same result).
[[nodiscard]] AsyncCostBreakdown evaluate_async_switch(
    const SolveInstance& instance, const MultiTaskSchedule& schedule);

/// §6 baseline: hyperreconfiguration disabled, every reconfiguration loads
/// all |X| switches — n · total_switches().
[[nodiscard]] Cost no_hyperreconfiguration_cost(const MachineSpec& machine,
                                                std::size_t steps);

/// Mode dispatcher.  kFullySynchronized and kNonSynchronized are the paper's
/// §4.2 / §4.1 models verbatim.  For the hybrid modes the paper gives no
/// closed formula; this library interprets them on synchronized traces as:
/// hypercontext-synchronised ⇒ reconfigurations overlap (task-parallel
/// reconfig combine), context-synchronised ⇒ partial hyperreconfigurations
/// overlap (task-parallel hyper combine).
[[nodiscard]] Cost evaluate_switch_total(SyncMode mode,
                                         const MultiTaskTrace& trace,
                                         const MachineSpec& machine,
                                         const MultiTaskSchedule& schedule,
                                         const EvalOptions& options = {});

}  // namespace hyperrec
