// Common result type and registry for multi-task MT-Switch solvers.
//
// Every solver for the fully synchronised MT-Switch problem (§5 of the
// paper) consumes a SolveInstance — the immutable IR bundling the validated
// (trace, machine, options) triple with interval tables built on first use
// (model/instance.hpp) — and produces a MultiTaskSchedule; MTSolution
// bundles it with its cost breakdown under the instance's evaluation
// options.  The registry lets benches, the portfolio racer and tests
// iterate all solvers uniformly; because solvers take the instance by const
// reference, a portfolio race builds the tables at most once per instance,
// not once per racer, and not at all when no member queries them.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "model/cost_switch.hpp"
#include "model/instance.hpp"
#include "model/machine.hpp"
#include "model/schedule.hpp"
#include "model/trace.hpp"
#include "support/cancel.hpp"

namespace hyperrec {

struct MTSolution {
  MultiTaskSchedule schedule;
  CostBreakdown breakdown;

  /// Optimality certificate (core/lower_bound.hpp), attached by
  /// attach_certificate — e.g. via solve_hierarchical or a certify-enabled
  /// portfolio/batch run.  nullopt means no bound was computed.
  std::optional<Cost> lower_bound;
  /// (total − lower_bound) · 100 / lower_bound; 0 when the bound is met,
  /// nullopt when no bound was computed or the bound is 0 with total > 0.
  std::optional<double> gap_pct;

  [[nodiscard]] Cost total() const noexcept { return breakdown.total; }
};

/// Re-evaluates a schedule against the instance and packages it as a
/// solution.  One evaluation, so it makes one pass over the trace and does
/// not build the instance's tables (evaluate_fully_sync_switch).
[[nodiscard]] MTSolution make_solution(const SolveInstance& instance,
                                       MultiTaskSchedule schedule);

/// make_solution for a solver that has queried the instance's tables
/// already: the same breakdown, priced through stats()
/// (detail::evaluate_fully_sync) in O(words) per interval instead of one
/// pass over the trace.
[[nodiscard]] MTSolution make_solution_from_tables(
    const SolveInstance& instance, MultiTaskSchedule schedule);

/// Solver entry point.  The CancelToken is a cooperative hook: iterative
/// solvers poll it between iterations and return their incumbent when it
/// fires; exact solvers may ignore it (they are fast on the instance sizes
/// they accept).  Callers that do not care pass an inert token.
using MTSolverFn =
    std::function<MTSolution(const SolveInstance&, const CancelToken&)>;

struct NamedSolver {
  std::string name;
  MTSolverFn fn;
  /// The member reads SolveHints::warm_start (the iterative solvers); the
  /// portfolio reports a warm start only when such a member actually ran.
  bool consumes_warm_start = false;

  /// Invokes fn; the cancel hook defaults to an inert token.
  [[nodiscard]] MTSolution solve(const SolveInstance& instance,
                                 const CancelToken& cancel = {}) const {
    return fn(instance, cancel);
  }
};

/// Per-instance hints threaded into the solver configurations.
struct SolveHints {
  /// Warm-start incumbent (e.g. from the solve cache): seeds simulated
  /// annealing and coordinate descent and joins the GA's initial
  /// population; the exact solvers ignore it.  0 or 1 entries; must
  /// validate against the instance being solved.
  std::vector<MultiTaskSchedule> warm_start;
};

/// The library's standard solver line-up (aligned DP, coordinate descent,
/// greedy, GA, SA) with default configurations — exhaustive search is
/// excluded because it only handles tiny instances.
[[nodiscard]] std::vector<NamedSolver> standard_solvers(
    const SolveHints& hints = {});

}  // namespace hyperrec
