// SolveInstance: the immutable solver-facing IR of one MT-Switch problem.
//
// Every §5 solver, the §4.2 evaluator, the portfolio racer, the batch
// engine and the solve cache consume the same validated triple
// (trace, machine, options).  SolveInstance bundles the triple with the
// shared interval tables (model/trace_stats.hpp): sparse-table interval
// unions, O(1) private-demand maxima and per-step global demand sums.
// Construct once at the boundary (CLI, engine, bench, test), then share the
// instance by const reference across every racer.
//
// The tables are built on first use: the first stats() or task_stats()
// call builds them, once, and every later call (from any thread) gets the
// same tables.  Solvers that query many intervals (coordinate descent,
// greedy, GA, SA, exhaustive search, the segmented hierarchical path) pay
// that build; the aligned DP, the flat exact path and make_solution never
// ask, so an exact solve builds no tables at all.  stats() is thread-safe:
// the members of a portfolio race share one instance, and whichever asks
// first builds for all of them.
//
// Layering:
//
//   model (trace, machine, cost)        raw domain types
//     └── SolveInstance                 validated triple + TraceStats tables
//           └── core solvers            MTSolution f(const SolveInstance&)
//                 └── engine            portfolio race / batch sharding
//                       └── cache, io   fingerprints, memoization, JSON
//
// The instance is move-only.  The stats copy what they need from the trace
// and keep no pointer into it; the payload stays behind a unique_ptr so the
// references trace() and stats() hand out survive a move of the instance.
// Validation (machine/trace shape) happens in the constructor, so a
// SolveInstance in hand is always well-formed.
#pragma once

#include <memory>
#include <mutex>

#include "model/cost_switch.hpp"
#include "model/machine.hpp"
#include "model/trace.hpp"
#include "model/trace_stats.hpp"

namespace hyperrec {

class SolveInstance {
 public:
  /// Validates the triple (machine/trace shape check); builds no tables.
  /// Throws PreconditionError on shape mismatch.
  SolveInstance(MultiTaskTrace trace, MachineSpec machine,
                EvalOptions options = {});

  SolveInstance(SolveInstance&&) noexcept = default;
  SolveInstance& operator=(SolveInstance&&) noexcept = default;
  SolveInstance(const SolveInstance&) = delete;
  SolveInstance& operator=(const SolveInstance&) = delete;

  [[nodiscard]] const MultiTaskTrace& trace() const noexcept {
    return data_->trace;
  }
  [[nodiscard]] const MachineSpec& machine() const noexcept {
    return data_->machine;
  }
  [[nodiscard]] const EvalOptions& options() const noexcept {
    return data_->options;
  }
  /// The interval tables of trace(), built by the first call (from any
  /// thread; concurrent first calls build once and all get the same
  /// tables).  Throws what building throws (bad_alloc).
  [[nodiscard]] const MultiTaskTraceStats& stats() const;
  [[nodiscard]] const TaskTraceStats& task_stats(std::size_t j) const {
    return stats().task(j);
  }

  [[nodiscard]] std::size_t task_count() const noexcept {
    return data_->trace.task_count();
  }
  [[nodiscard]] bool synchronized() const noexcept {
    return data_->trace.synchronized();
  }
  /// Common step count; requires a synchronized trace.
  [[nodiscard]] std::size_t steps() const { return data_->trace.steps(); }

 private:
  struct Data {
    MultiTaskTrace trace;
    MachineSpec machine;
    EvalOptions options;
    mutable std::once_flag stats_built;
    mutable MultiTaskTraceStats stats;
  };
  std::unique_ptr<const Data> data_;
};

}  // namespace hyperrec
