// Context-requirement traces (paper §2, §3).
//
// An algorithm/computation is characterised by a sequence of context
// requirements: for every reconfiguration step, the set of reconfigurable
// features the step needs.  In the (MT-)switch model a requirement of task
// T_j is a subset of the task's local switches f_j^loc plus a demand on the
// shared private-global units.
//
// Private-global resources (the paper's I/O-unit example) are modelled as a
// *count* rather than a set: the units are interchangeable, the global
// hypercontext assigns a quota per task, and all cost formulas only use
// |h^priv| — so the demand per step is the number of units the step needs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/bitset.hpp"

namespace hyperrec {

/// One step's requirement for one task.
struct ContextRequirement {
  /// Switches of the task's local resource set f_j^loc needed by this step.
  DynamicBitset local;
  /// Number of private-global units needed by this step (0 if unused).
  std::uint32_t private_demand = 0;
};

/// The requirement sequence of a single task.
class TaskTrace {
 public:
  /// `local_universe` = l_j, the number of local switches of the task.
  explicit TaskTrace(std::size_t local_universe)
      : local_universe_(local_universe) {}

  [[nodiscard]] std::size_t local_universe() const noexcept {
    return local_universe_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return steps_.size(); }
  [[nodiscard]] bool empty() const noexcept { return steps_.empty(); }

  [[nodiscard]] const ContextRequirement& at(std::size_t step) const {
    HYPERREC_ENSURE(step < steps_.size(), "trace step out of range");
    return steps_[step];
  }

  /// Every requirement in step order, for loops that index steps without a
  /// bounds check per access (the interval DPs' scans).
  [[nodiscard]] std::span<const ContextRequirement> requirements()
      const noexcept {
    return steps_;
  }

  /// Appends a requirement; its local universe must match.
  void push_back(ContextRequirement req);

  /// Convenience: appends a local-only requirement.
  void push_back_local(DynamicBitset local) {
    push_back({std::move(local), 0});
  }

  /// Union of local requirements over steps [first, last) by linear rescan.
  /// O(range·words) — kept as the property-test oracle for the
  /// TaskTraceStats views (model/trace_stats.hpp), which the solvers query
  /// instead (and the one-off evaluators' single pass, which never rescans
  /// an interval).
  [[nodiscard]] DynamicBitset local_union_naive(std::size_t first,
                                                std::size_t last) const;

  /// Maximum private demand over steps [first, last) by linear rescan; 0
  /// for an empty range.  Oracle counterpart of
  /// TaskTraceStats::max_private_demand.
  [[nodiscard]] std::uint32_t max_private_demand_naive(std::size_t first,
                                                       std::size_t last) const;

  /// Fresh trace holding copies of steps [first, last) — one bulk vector
  /// copy instead of a push_back per step, for window cutting on hot paths
  /// (the streaming engine slices a window per re-solve trigger).
  [[nodiscard]] TaskTrace slice(std::size_t first, std::size_t last) const;

 private:
  std::size_t local_universe_;
  std::vector<ContextRequirement> steps_;
};

/// Requirement sequences for all m tasks of a multi-task machine.
///
/// On a *synchronised* machine all tasks advance in lock step, so their
/// traces must have equal length (checked by synchronized()).  On a
/// non-synchronised machine (§4.1) lengths may differ.
class MultiTaskTrace {
 public:
  MultiTaskTrace() = default;

  void add_task(TaskTrace trace) { tasks_.push_back(std::move(trace)); }

  /// Appends one synchronized step: requirement j goes to task j.  Requires
  /// at least one task, a synchronized trace, and exactly one requirement
  /// per task (universes checked by TaskTrace::push_back).  This is the
  /// mutation entry point for streams that grow step-by-step (streaming
  /// layer, mid-growth checkpoints reloaded via io::load_trace).
  void append_step(std::vector<ContextRequirement> step);

  /// Read counterpart of append_step: step i of every task, in task order.
  /// Requires a synchronized trace with i < steps().
  [[nodiscard]] std::vector<ContextRequirement> step(std::size_t i) const;

  [[nodiscard]] std::size_t task_count() const noexcept {
    return tasks_.size();
  }
  [[nodiscard]] const TaskTrace& task(std::size_t j) const {
    HYPERREC_ENSURE(j < tasks_.size(), "task index out of range");
    return tasks_[j];
  }

  /// True iff all tasks have the same number of steps.
  [[nodiscard]] bool synchronized() const noexcept;

  /// Common step count; requires synchronized().
  [[nodiscard]] std::size_t steps() const;

  /// Fresh trace holding steps [first, last) of every task (TaskTrace::slice
  /// per task) — the sub-trace of one block, segment or stream window.
  [[nodiscard]] MultiTaskTrace slice(std::size_t first,
                                     std::size_t last) const;

  /// Builds a local-only multi-task trace from per-task requirement lists.
  /// universes[j] gives l_j.
  [[nodiscard]] static MultiTaskTrace from_local(
      const std::vector<std::size_t>& universes,
      const std::vector<std::vector<DynamicBitset>>& requirements);

 private:
  std::vector<TaskTrace> tasks_;
};

}  // namespace hyperrec
