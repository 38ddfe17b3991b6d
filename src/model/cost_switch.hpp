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

/// hypercontexts[j][k] = minimal hypercontext of task j in its interval k,
/// from one pass over each task's steps (no interval tables are built).
/// Each partition must cover exactly its task's steps.
[[nodiscard]] std::vector<std::vector<LocalHypercontext>>
derive_local_hypercontexts(const MultiTaskTrace& trace,
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
/// the machine/trace shapes.  Prices one schedule in one pass over each
/// task's steps (O(n·words) per task) and builds no interval tables — the
/// right cost for a one-off evaluation such as make_solution's.  A caller
/// that prices many schedules of one trace, or has built the instance's
/// tables anyway, calls detail::evaluate_fully_sync with them instead.
[[nodiscard]] CostBreakdown evaluate_fully_sync_switch(
    const MultiTaskTrace& trace, const MachineSpec& machine,
    const MultiTaskSchedule& schedule, const EvalOptions& options = {});

/// The same one-pass evaluation over an instance's triple; it does not
/// build the instance's tables (stats()).
[[nodiscard]] CostBreakdown evaluate_fully_sync_switch(
    const SolveInstance& instance, const MultiTaskSchedule& schedule);

namespace detail {

/// Per-step combine: max for task-parallel upload, Σ for task-sequential.
/// The Σ saturates at ±kCostInfinity (support/cost_math.hpp), as the DPs do.
[[nodiscard]] inline Cost combine(UploadMode mode, Cost acc, Cost value) {
  return mode == UploadMode::kTaskParallel ? std::max(acc, value)
                                           : cost_add(acc, value);
}

/// Table-backed §4.2 evaluator: the same checks and the same step walk as
/// evaluate_fully_sync_switch (bit-identical CostBreakdown), but each
/// interval's facts come from `stats`, a MultiTaskTraceStats of exactly
/// trace's steps — O(words) per interval instead of O(length·words).  For
/// callers that price many schedules: the metaheuristics, coordinate
/// descent and exhaustive search pass instance.stats(), and the streaming
/// engine passes the tables it appends to step by step.
[[nodiscard]] CostBreakdown evaluate_fully_sync(
    const MultiTaskTrace& trace, const MultiTaskTraceStats& stats,
    const MachineSpec& machine, const MultiTaskSchedule& schedule,
    const EvalOptions& options);

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
/// block (at most one global hyperreconfiguration, at the start).  One pass
/// over each task's steps; builds no interval tables.
[[nodiscard]] AsyncCostBreakdown evaluate_async_switch(
    const MultiTaskTrace& trace, const MachineSpec& machine,
    const MultiTaskSchedule& schedule, const EvalOptions& options = {});

/// The same §4.1 evaluation over an instance's triple (no tables built).
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
