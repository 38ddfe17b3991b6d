// Portfolio solving: race several registry solvers on one instance.
//
// Algorithm-portfolio runtimes (one instance, many strategies, pick the
// best answer available when the budget runs out) are the standard way to
// serve optimisation problems under latency targets.  solve_portfolio runs
// a configurable subset of standard_solvers() on the same (trace, machine,
// options) instance, all sharing one CancelToken:
//
//   * with a deadline, iterative solvers (annealing, genetic, coordinate
//     descent) return their incumbent when it fires, so every member
//     produces a feasible answer;
//   * with cancel_losers, the first member to finish cancels the rest —
//     latency mode for serving;
//   * members run either concurrently on a ThreadPool or serially
//     (deterministic, and required when called from inside a pool worker —
//     see BatchEngine).
//
// The best completed answer wins; ties break towards the earlier line-up
// position, so results are deterministic for a fixed member set.
//
// Exact fast path: when portfolio_is_exact holds — "aligned-dp" is in the
// line-up and the instance lies in the class where it is optimal over all
// schedules (aligned_dp_is_exact, proof in core/aligned_dp.hpp) — it runs
// alone and every other member, registry or `extra`, is reported as a
// skipped entry.  Under `certify` the answer then certifies itself
// (lower_bound = total, gap 0) without computing a relaxation.  Instances
// outside the class race as described above.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "support/cancel.hpp"
#include "support/thread_pool.hpp"

namespace hyperrec::engine {

struct PortfolioConfig {
  /// Names from standard_solvers() to race; empty means the whole line-up.
  /// Unknown names are a precondition error.
  std::vector<std::string> solvers;
  /// Per-call budget; 0 means none.  Implemented as a CancelToken deadline
  /// shared by all members.
  std::chrono::milliseconds deadline{0};
  /// First completed member cancels the rest (latency mode).  Under
  /// parallel execution the cancelled members still report their
  /// incumbents; under serial execution the remaining members are skipped
  /// outright (ok = false, error notes the skip) — running them would only
  /// collect degenerate incumbents from an already-cancelled token.
  bool cancel_losers = false;
  /// Run members concurrently on `pool` (nullptr: the global pool).  When
  /// the caller itself runs on a worker of that pool the race silently
  /// degrades to serial execution (blocking a worker on work queued behind
  /// it would deadlock the shared no-work-stealing queue).
  bool parallel = true;
  ThreadPool* pool = nullptr;
  /// Warm-start incumbent fed to the iterative members (SA/GA/coordinate
  /// descent) as their initial solution — e.g. a same-shape schedule from
  /// the solve cache.  0 or 1 entries; must validate against the instance
  /// (global boundaries are normalized for the machine automatically).
  std::vector<MultiTaskSchedule> warm_start;
  /// Additional members raced after the named line-up — custom solvers for
  /// experiments and tests (e.g. asserting that every racer observes the
  /// same SolveInstance).  Unlike `solvers`, these need no registry entry.
  std::vector<NamedSolver> extra;
  /// Attach an optimality certificate (core/lower_bound.hpp) to the winner:
  /// lower_bound + gap_pct stamped on the best solution.  Synchronized
  /// traces only; skipped silently otherwise.  On the exact fast path the
  /// bound is the optimum itself.
  bool certify = false;
};

struct PortfolioEntry {
  std::string solver;
  Cost total = 0;
  std::chrono::microseconds elapsed{0};
  bool ok = false;    ///< solver returned a solution (did not throw)
  std::string error;  ///< exception text, or "skipped: <why>", when !ok
};

struct PortfolioResult {
  MTSolution best;
  std::string winner;  ///< name of the member that produced `best`
  std::vector<PortfolioEntry> entries;  ///< line-up order
  std::chrono::microseconds elapsed{0};
  /// A warm-start seed was supplied and a member that reads it
  /// (NamedSolver::consumes_warm_start) actually ran.
  bool warm_started = false;
};

/// The exact fast path's test, the one place that decides it: true when
/// "aligned-dp" is a registry member of `config`'s line-up (an empty
/// `solvers` list means the whole line-up; `extra` members never qualify)
/// and aligned_dp_is_exact(instance) holds, so the aligned DP's answer is
/// the optimum and no other member need run.  solve_portfolio races
/// everyone else only when this is false; solve_hierarchical solves such
/// instances flat at any length (core/hierarchical.hpp).
[[nodiscard]] bool portfolio_is_exact(const SolveInstance& instance,
                                      const PortfolioConfig& config);

/// Races the configured members on one instance.  Every member receives the
/// *same* SolveInstance by const reference — the shared precomputation is
/// paid once per race, never per racer.  Throws PreconditionError for
/// unknown member names or when every member throws (the instance itself is
/// infeasible for the whole line-up).  `cancel` is the caller's token; the
/// config deadline is linked under it, so either fires the race.
[[nodiscard]] PortfolioResult solve_portfolio(const SolveInstance& instance,
                                              const PortfolioConfig& config = {},
                                              const CancelToken& cancel = {});

}  // namespace hyperrec::engine
