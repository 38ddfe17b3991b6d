// Optimal single-task solvers for the Switch cost model.
//
// solve_single_task_switch computes the optimal partition of a context-
// requirement sequence into hypercontext intervals (the single-task problem
// referenced in §6: "for the single task case optimal (hyper)reconfiguration
// costs were computed, cmp. [9]").  An interval [s, e) is served by its
// minimal hypercontext — the union U(s,e) of its requirements — and costs
//     H + r(s,e)·(e − s),   r(s,e) = |U(s,e)| + maxpriv(s,e),
// where H = v is the hyperreconfiguration cost.  Dynamic programming over
// prefix lengths: best[e] = min over s < e of best[s] + H + r(s,e)·(e − s),
// scanning s = e−1, e−2, ... with an incrementally merged union.  That is
// O(n²) set operations in the worst case; the exact early exit below stops
// most scans after a handful of starts.  At n = 512 and universe 1024 the
// phased, random, bursty and periodic families price 8–19 starts per end
// on average instead of 256; random-walk, whose optimal intervals are
// long, still prices ~216.
//
// Exact early exit
// ----------------
// The scan for `e` stops after pricing start s once
//     best[s] + r(s,e)·(e − s) ≥ best[e].
// r is non-negative and monotone under interval inclusion (a union size
// plus a range maximum), so for every s′ < s
//     candidate(s′) = best[s′] + H + r(s′,e)·(e − s′)
//                   ≥ best[s′] + H + r(s′,s)·(s − s′) + r(s,e)·(e − s)
//                   ≥ best[s] + r(s,e)·(e − s)           (s′ is a start for s)
//                   ≥ best[e].
// The update needs candidate < best[e], so no skipped start could have
// changed best[e] or parent[e]: every best[] and parent[] entry, and with
// them every schedule, cost and certificate, is bit-identical to the full
// scan (tests/testutil/reference_dp.hpp keeps the unpruned loops).
//
// Saturating arithmetic (support/cost_math.hpp): with H ≥ 0 every value is
// in [0, kCostInfinity], and cost_add/cost_mul of such values equal
// min(exact result, kCostInfinity), so a chain of them equals the clamped
// exact sum.  Either best[s′] + H + r(s′,s)·(s − s′) reaches the clamp —
// then candidate(s′) = kCostInfinity ≥ best[e] — or best[s] is at most that
// exact sum and the chain above holds with both ends clamped (the clamp is
// monotone).  With a negative H the chain can fail: best[s′] + H can be
// negative while r(s′,e)·(e − s′) saturates, so candidate(s′) lands below
// the clamp although best[s] + r(s,e)·(e − s) does not.  That takes a tail
// of kCostInfinity (over 5·10⁸ steps even at the largest private demand),
// but the scan prunes only when H ≥ 0, so the argument needs no size limit.
// It uses nothing but "H fixed, r ≥ 0 monotone", so it covers the aligned
// DP (core/aligned_dp.hpp) unchanged, with its combined hyper and
// reconfiguration terms as H and r.
//
// single_task_switch_cost runs the same DP loop in place on a step range of
// a trace and returns only the optimal cost: no slice copy, no stats build,
// no hypercontext reconstruction.  The certificate's chunked relaxation
// (core/lower_bound.hpp) is its caller.
//
// solve_single_task_switch_changeover additionally charges the symmetric
// difference |h_k Δ h_{k−1}| at every hyperreconfiguration (§4.1's
// changeover model).  It is exact within the minimal-hypercontext policy
// (hypercontext = union of its interval); allowing arbitrary supersets makes
// the problem a search over 2^X — the implicitly-specified regime in which
// the general problem is NP-complete.  O(n³); the changeover term depends
// on the previous interval, so the early exit above does not apply.
#pragma once

#include "model/cost_switch.hpp"
#include "model/machine.hpp"
#include "model/schedule.hpp"
#include "model/trace.hpp"
#include "model/types.hpp"

namespace hyperrec {

struct SingleTaskSolution {
  Partition partition;
  Cost total = 0;
  /// Minimal hypercontext (local part) per interval.
  std::vector<DynamicBitset> hypercontexts;
};

/// Optimal partition under interval cost v + (|U| + maxpriv)·len.  The DP
/// keeps its own running unions, so no stats tables are built; each chosen
/// interval's hypercontext is the OR of its steps.
[[nodiscard]] SingleTaskSolution solve_single_task_switch(
    const TaskTrace& trace, Cost hyper_init);

/// Optimal cost of steps [lo, hi) of `trace` alone, equal to
/// solve_single_task_switch(trace.slice(lo, hi), hyper_init).total but
/// computed in place.  Requires lo < hi ≤ trace.size().
[[nodiscard]] Cost single_task_switch_cost(const TaskTrace& trace,
                                           std::size_t lo, std::size_t hi,
                                           Cost hyper_init);

/// Optimal partition under the changeover variant (see header comment).
[[nodiscard]] SingleTaskSolution solve_single_task_switch_changeover(
    const TaskTrace& trace, Cost hyper_init);

}  // namespace hyperrec
