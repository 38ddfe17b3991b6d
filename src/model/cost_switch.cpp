#include "model/cost_switch.hpp"

#include <algorithm>

#include "model/instance.hpp"
#include "model/trace_stats.hpp"

namespace hyperrec {

namespace {

/// What pricing a schedule needs of its intervals, from one of two sources
/// (one pass over the trace, or the interval tables): each interval's size
/// |U| + priv, task after task; under changeover the unions themselves; and
/// with a private-global pool, each global block's quota sum Σ_j peak_j.
struct IntervalFacts {
  struct TaskCursor {
    std::size_t offset = 0;  ///< task's first entry in sizes
    std::size_t k = 0;       ///< interval index at the current step
  };
  std::vector<TaskCursor> cursors;
  std::vector<Cost> sizes;
  std::vector<std::vector<DynamicBitset>> unions;  ///< [j][k], changeover
  std::vector<std::uint64_t> block_quotas;         ///< per block, pool > 0
};

/// One pass over a task's steps: ORs each step of an interval into a
/// running union and tracks its peak private demand, then calls
/// visit(start, union, peak) once at the interval's end.
template <typename Visit>
void for_each_interval(const TaskTrace& task, const Partition& partition,
                       Visit&& visit) {
  DynamicBitset running(task.local_universe());
  for (std::size_t k = 0; k < partition.interval_count(); ++k) {
    const auto [start, end] = partition.interval_bounds(k);
    running.reset_all();
    std::uint32_t peak = 0;
    for (std::size_t i = start; i < end; ++i) {
      const ContextRequirement& req = task.at(i);
      running |= req.local;
      peak = std::max(peak, req.private_demand);
    }
    visit(start, running, peak);
  }
}

/// Gathers IntervalFacts task by task.  intervals_of(j, add) calls
/// add(start, |U|, peak, union_of) for each interval of task j in order;
/// union_of() yields the union and is called only under changeover.  A
/// validated global boundary is a boundary of every task, so each interval
/// lies inside one block and a task's block quota is the peak of its
/// intervals there.  (The asynchronous evaluator's single block, at most
/// one global boundary, spans each task's own length.)
template <typename IntervalsOf>
IntervalFacts collect_facts(const MultiTaskSchedule& schedule,
                            bool changeover, std::uint64_t pool,
                            IntervalsOf&& intervals_of) {
  const std::vector<std::size_t>& bounds = schedule.global_boundaries;
  const std::size_t m = schedule.tasks.size();
  IntervalFacts facts;
  facts.cursors.resize(m);
  std::size_t total_intervals = 0;
  for (const Partition& partition : schedule.tasks) {
    total_intervals += partition.interval_count();
  }
  facts.sizes.reserve(total_intervals);
  if (changeover) facts.unions.resize(m);
  if (pool > 0) {
    facts.block_quotas.assign(std::max<std::size_t>(1, bounds.size()), 0);
  }
  for (std::size_t j = 0; j < m; ++j) {
    facts.cursors[j].offset = facts.sizes.size();
    if (changeover) facts.unions[j].reserve(schedule.tasks[j].interval_count());
    std::size_t block = 0;
    std::uint32_t block_peak = 0;
    intervals_of(j, [&](std::size_t start, std::size_t count,
                        std::uint32_t peak, const auto& union_of) {
      facts.sizes.push_back(static_cast<Cost>(count) +
                            static_cast<Cost>(peak));
      if (changeover) facts.unions[j].push_back(union_of());
      if (pool == 0) return;
      while (block + 1 < bounds.size() && bounds[block + 1] <= start) {
        facts.block_quotas[block++] += block_peak;
        block_peak = 0;
      }
      block_peak = std::max(block_peak, peak);
    });
    if (pool > 0) facts.block_quotas[block] += block_peak;
  }
  return facts;
}

/// Interval facts from one pass over every task's steps; builds no tables.
IntervalFacts facts_from_pass(const MultiTaskTrace& trace,
                              const MultiTaskSchedule& schedule,
                              bool changeover, std::uint64_t pool) {
  return collect_facts(
      schedule, changeover, pool, [&](std::size_t j, const auto& add) {
        for_each_interval(trace.task(j), schedule.tasks[j],
                          [&](std::size_t start, const DynamicBitset& local,
                              std::uint32_t peak) {
                            add(start, local.count(), peak,
                                [&local] { return local; });
                          });
      });
}

/// Interval facts from the tables, O(words) per interval: for callers that
/// price many schedules of one trace.
IntervalFacts facts_from_tables(const MultiTaskTraceStats& stats,
                                const MultiTaskSchedule& schedule,
                                bool changeover, std::uint64_t pool) {
  return collect_facts(
      schedule, changeover, pool, [&](std::size_t j, const auto& add) {
        const TaskTraceStats& task = stats.task(j);
        const Partition& partition = schedule.tasks[j];
        for (std::size_t k = 0; k < partition.interval_count(); ++k) {
          const auto [start, end] = partition.interval_bounds(k);
          add(start, task.local_union_count(start, end),
              task.max_private_demand(start, end),
              [&task, start = start, end = end] {
                return task.local_union(start, end);
              });
        }
      });
}

/// Cost of task j's local hyperreconfiguration into interval k, including
/// the optional changeover term against the previous hypercontext (the
/// first one diffs against ∅).
Cost local_hyper_cost(const MachineSpec& machine, std::size_t j,
                      const IntervalFacts& facts, std::size_t k,
                      bool changeover) {
  Cost cost = machine.tasks[j].local_init;
  if (changeover) {
    const std::vector<DynamicBitset>& unions = facts.unions[j];
    const DynamicBitset& current = unions[k];
    cost = cost_add(
        cost, static_cast<Cost>(
                  k == 0 ? current.count()
                         : current.symmetric_difference_count(unions[k - 1])));
  }
  return cost;
}

/// Shape checks of the §4.2 evaluator, shared by both sources of facts.
void check_fully_sync(const MultiTaskTrace& trace, const MachineSpec& machine,
                      const MultiTaskSchedule& schedule) {
  machine.validate_trace(trace);
  HYPERREC_ENSURE(trace.synchronized(),
                  "fully synchronised evaluation requires equal-length traces");
  schedule.validate(trace.task_count(), trace.steps());
  if (machine.has_global_resources()) {
    HYPERREC_ENSURE(!schedule.global_boundaries.empty() &&
                        schedule.global_boundaries.front() == 0,
                    "machines with global resources need a global "
                    "hyperreconfiguration at step 0");
  } else {
    HYPERREC_ENSURE(schedule.global_boundaries.empty(),
                    "machines without global resources cannot perform global "
                    "hyperreconfigurations");
  }
}

/// The §4.2 step walk over a checked schedule's interval facts, whichever
/// source filled them.
CostBreakdown price_steps(const MachineSpec& machine,
                          const MultiTaskSchedule& schedule,
                          const EvalOptions& options, IntervalFacts facts,
                          std::size_t n) {
  // §3 quota rule: within every global block the per-task private quotas
  // must fit into the machine's pool of g units.
  for (const std::uint64_t quota : facts.block_quotas) {
    HYPERREC_ENSURE(quota <= machine.private_global_units,
                    "private-global demand exceeds the unit pool within a "
                    "global block; insert a global hyperreconfiguration");
  }

  const std::vector<std::size_t>& bounds = schedule.global_boundaries;
  const std::size_t m = schedule.tasks.size();
  CostBreakdown breakdown;
  for (std::size_t l = 0; l < n; ++l) {
    bool any_boundary = false;
    Cost hyper_term = 0;
    // |h^pub| participates in the max for task-parallel upload and is added
    // once for task-sequential — both are the combine starting value.
    Cost reconfig_term = static_cast<Cost>(machine.public_context_size);

    for (std::size_t j = 0; j < m; ++j) {
      const Partition& partition = schedule.tasks[j];
      IntervalFacts::TaskCursor& cursor = facts.cursors[j];
      // The cursor knows the next boundary (starts are sorted and walked in
      // step order), so no per-step binary search.
      const std::size_t next = cursor.k + 1;
      const bool boundary =
          l == 0 || (next < partition.interval_count() &&
                     partition.starts()[next] == l);
      if (boundary && l > 0) cursor.k = next;
      if (boundary) {
        any_boundary = true;
        hyper_term = detail::combine(
            options.hyper_upload, hyper_term,
            local_hyper_cost(machine, j, facts, cursor.k, options.changeover));
      }
      reconfig_term = detail::combine(options.reconfig_upload, reconfig_term,
                                      facts.sizes[cursor.offset + cursor.k]);
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

}  // namespace

namespace detail {

CostBreakdown evaluate_fully_sync(const MultiTaskTrace& trace,
                                  const MultiTaskTraceStats& stats,
                                  const MachineSpec& machine,
                                  const MultiTaskSchedule& schedule,
                                  const EvalOptions& options) {
  check_fully_sync(trace, machine, schedule);
  return price_steps(
      machine, schedule, options,
      facts_from_tables(stats, schedule, options.changeover,
                        machine.private_global_units),
      trace.steps());
}

}  // namespace detail

std::vector<std::vector<LocalHypercontext>> derive_local_hypercontexts(
    const MultiTaskTrace& trace, const MultiTaskSchedule& schedule) {
  HYPERREC_ENSURE(schedule.tasks.size() == trace.task_count(),
                  "schedule task count mismatch");
  std::vector<std::vector<LocalHypercontext>> result(trace.task_count());
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    const Partition& partition = schedule.tasks[j];
    HYPERREC_ENSURE(partition.n() == trace.task(j).size(),
                    "schedule step count mismatch for task");
    result[j].reserve(partition.interval_count());
    for_each_interval(trace.task(j), partition,
                      [&](std::size_t, const DynamicBitset& local,
                          std::uint32_t peak) {
                        result[j].push_back(LocalHypercontext{local, peak});
                      });
  }
  return result;
}

CostBreakdown evaluate_fully_sync_switch(const MultiTaskTrace& trace,
                                         const MachineSpec& machine,
                                         const MultiTaskSchedule& schedule,
                                         const EvalOptions& options) {
  check_fully_sync(trace, machine, schedule);
  return price_steps(machine, schedule, options,
                     facts_from_pass(trace, schedule, options.changeover,
                                     machine.private_global_units),
                     trace.steps());
}

CostBreakdown evaluate_fully_sync_switch(const SolveInstance& instance,
                                         const MultiTaskSchedule& schedule) {
  return evaluate_fully_sync_switch(instance.trace(), instance.machine(),
                                    schedule, instance.options());
}

AsyncCostBreakdown evaluate_async_switch(const MultiTaskTrace& trace,
                                         const MachineSpec& machine,
                                         const MultiTaskSchedule& schedule,
                                         const EvalOptions& options) {
  machine.validate_trace(trace);
  HYPERREC_ENSURE(machine.public_context_size == 0,
                  "public resources require a context- or fully-synchronised "
                  "machine (§3)");
  HYPERREC_ENSURE(schedule.tasks.size() == trace.task_count(),
                  "schedule task count mismatch");
  HYPERREC_ENSURE(schedule.global_boundaries.size() <= 1,
                  "asynchronous evaluation covers a single global block");
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    HYPERREC_ENSURE(schedule.tasks[j].n() == trace.task(j).size(),
                    "schedule step count mismatch for task");
  }

  const IntervalFacts facts = facts_from_pass(
      trace, schedule, options.changeover, machine.private_global_units);
  // Private feasibility over the single block.
  for (const std::uint64_t quota : facts.block_quotas) {
    HYPERREC_ENSURE(quota <= machine.private_global_units,
                    "private-global demand exceeds the unit pool");
  }

  AsyncCostBreakdown breakdown;
  breakdown.per_task.resize(trace.task_count(), 0);
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    const Partition& partition = schedule.tasks[j];
    Cost total = 0;
    for (std::size_t k = 0; k < partition.interval_count(); ++k) {
      const auto [start, end] = partition.interval_bounds(k);
      // Saturating sums, as in the §4.2 evaluator: a near-maximum v_j reads
      // as kCostInfinity instead of wrapping.
      total = cost_add(total, local_hyper_cost(machine, j, facts, k,
                                               options.changeover));
      const Cost size = facts.sizes[facts.cursors[j].offset + k];
      total = cost_add(total, cost_mul(size, static_cast<Cost>(end - start)));
    }
    breakdown.per_task[j] = total;
  }
  breakdown.global_hyper =
      machine.has_global_resources() ? machine.global_init : 0;
  const Cost slowest = breakdown.per_task.empty()
                           ? 0
                           : *std::max_element(breakdown.per_task.begin(),
                                               breakdown.per_task.end());
  breakdown.total = cost_add(breakdown.global_hyper, slowest);
  return breakdown;
}

AsyncCostBreakdown evaluate_async_switch(const SolveInstance& instance,
                                         const MultiTaskSchedule& schedule) {
  return evaluate_async_switch(instance.trace(), instance.machine(), schedule,
                               instance.options());
}

Cost no_hyperreconfiguration_cost(const MachineSpec& machine,
                                  std::size_t steps) {
  return static_cast<Cost>(machine.total_switches()) *
         static_cast<Cost>(steps);
}

Cost evaluate_switch_total(SyncMode mode, const MultiTaskTrace& trace,
                           const MachineSpec& machine,
                           const MultiTaskSchedule& schedule,
                           const EvalOptions& options) {
  switch (mode) {
    case SyncMode::kFullySynchronized:
      return evaluate_fully_sync_switch(trace, machine, schedule, options)
          .total;
    case SyncMode::kHypercontextSynchronized: {
      EvalOptions adjusted = options;
      adjusted.reconfig_upload = UploadMode::kTaskParallel;
      return evaluate_fully_sync_switch(trace, machine, schedule, adjusted)
          .total;
    }
    case SyncMode::kContextSynchronized: {
      EvalOptions adjusted = options;
      adjusted.hyper_upload = UploadMode::kTaskParallel;
      return evaluate_fully_sync_switch(trace, machine, schedule, adjusted)
          .total;
    }
    case SyncMode::kNonSynchronized:
      return evaluate_async_switch(trace, machine, schedule, options).total;
  }
  HYPERREC_ASSERT(false);
}

}  // namespace hyperrec
