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
// scanning s = e−1, e−2, ...  The exact early exit below stops most scans
// after a handful of starts: at 4 tasks × 4096 steps × universe 1024 the
// aligned DP prices 3–9 starts per end on the phased, random, bursty and
// periodic families; random-walk, whose optimal intervals are long, prices
// ~170.
//
// One kernel, detail::interval_dp, runs every scan: m tasks over a step
// range, a caller-supplied H, and r(s,e) = combine over the tasks of
// |U_j(s,e)| + maxpriv_j(s,e), starting from a public context size.  The
// aligned DP (core/aligned_dp.hpp) calls it with its hyper term, the
// machine's public context and the reconfig upload mode; the single-task
// DPs are m = 1 with public context 0.  H stays a parameter because the
// aligned DP's hyper combine is not the identity for one negative v.
//
// Union sizes
// -----------
// Extending a scan from s + 1 to s adds |step s \ U(s+1,e)| to the union:
// the number of elements whose last occurrence before e is step s.
// detail::UnionScan keeps that count from one of two sources:
//   * merge: OR step s into a running union and count the new bits, O(words)
//     per start and nothing to keep between ends;
//   * counters: cnt[t] counts the elements whose last occurrence before the
//     end the counters are synced to is step t, so a start adds one integer.
//     Catching up to a later end walks each lagging step's set bits once
//     (--cnt[last[x]], then last[x] = t, then cnt[t] += |step t|).
// Both add the same number per start, so a scan can start on merges and
// hand over to the counters at any start; the union sizes, and with them
// every best[], parent[] and early exit, do not depend on the source.  A
// rent-or-buy rule, shared by the m tasks, picks the source.  Every start
// priced adds its merge cost to a rent (per task, its words plus a fixed
// call overhead), and the counters catch up once the rent since the last
// catch-up reaches the catch-up's own cost (per lagging step and task, its
// words plus a dependent load and store per set bit; lagging steps are
// popcounted only as far as twice the rent reaches).  At 4 tasks × 4096
// steps × universe 1024, random (307 bits per step, 3 starts per end) never
// catches up and merges as before, while random-walk (180 bits, 170
// starts) catches up at the first start of nearly every end and then adds
// one integer per task and start.  A catch-up costs at most the rent that
// bought it, and the merges paid while the rent grows cost at most the
// catch-up they put off, so no trace pays much more than twice the cheaper
// source.  The counters (4 bytes per step and task and per universe
// element) are allocated at the first catch-up, and only when they take no
// more bytes than the range's own words, so a short range over a huge
// universe always merges.
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
// reconfiguration terms as H and r, and either union source, which yield
// the same r.
//
// single_task_switch_cost runs the same kernel in place on a step range of
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

#include <cstdint>
#include <span>
#include <vector>

#include "model/cost_switch.hpp"
#include "model/machine.hpp"
#include "model/schedule.hpp"
#include "model/trace.hpp"
#include "model/types.hpp"
#include "support/bitset_kernels.hpp"

namespace hyperrec {

struct SingleTaskSolution {
  Partition partition;
  Cost total = 0;
  /// Minimal hypercontext (local part) per interval.
  std::vector<DynamicBitset> hypercontexts;
};

/// Optimal partition under interval cost v + (|U| + maxpriv)·len.  The DP
/// keeps its own union sizes, so no stats tables are built; each chosen
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

namespace detail {

/// |U_j(s, end)| of every task's steps [lo, hi) for an interval DP's
/// scans, with steps and ends relative to lo.  The tasks share one source at
/// a time and one rent-or-buy rule (see the header comment).
class UnionScan {
 public:
  using Word = DynamicBitset::Word;

  /// Requires at least one task and lo ≤ hi ≤ every task's size; reads the
  /// traces in place, which must outlive the scan.
  UnionScan(std::span<const TaskTrace* const> tasks, std::size_t lo,
            std::size_t hi);

  /// Scans the starts of `end`, which must ascend from call to call
  /// through 1..hi − lo: for start = end − 1, end − 2, ... calls
  /// price(start, sizes) with sizes[j] = |U_j(start, end)| until price
  /// returns false or start 0 has been priced.  kLanes, when not 0, is the
  /// task count, fixed at compile time for the single-task DPs.
  template <std::size_t kLanes = 0, typename Price>
  void scan(std::size_t end, Price&& price);

  /// Observations for tests: how often the counters caught up, and whether
  /// they were ever allocated.
  [[nodiscard]] std::size_t catch_ups() const noexcept { return catch_ups_; }
  [[nodiscard]] bool counters_allocated() const noexcept {
    return !counts_.empty();
  }

 private:
  struct Lane {
    std::span<const ContextRequirement> steps;
    std::size_t universe = 0;
    std::size_t words = 0;
    /// Offsets of the task's running union in running_ and of its slice
    /// of last_.
    std::size_t running = 0;
    std::size_t last = 0;
  };

  /// Sets every running union to step `start`'s requirement.
  void start_merging(std::size_t m, std::size_t start) {
    for (std::size_t j = 0; j < m; ++j) {
      const Lane& lane = lanes_[j];
      const Word* words = lane.steps[start].local.words().data();
      // A copy through the kernel layer: no library call for one word.
      kernels::or_words(running_.data() + lane.running, words, words,
                        lane.words);
      sizes_[j] = kernels::popcount(words, lane.words);
    }
  }
  /// Merges step `start` into every running union.
  void merge(std::size_t m, std::size_t start) {
    for (std::size_t j = 0; j < m; ++j) {
      const Lane& lane = lanes_[j];
      sizes_[j] += kernels::or_merge_count(
          running_.data() + lane.running,
          lane.steps[start].local.words().data(), lane.words);
    }
  }
  /// Adds (or, for the first start, sets) step `start`'s counts.
  void add_counts(std::size_t m, std::size_t start, bool first) {
    const std::uint32_t* row = counts_.data() + (start + 1) * m;
    for (std::size_t j = 0; j < m; ++j) {
      sizes_[j] = (first ? 0 : sizes_[j]) + row[j];
    }
  }
  /// Brings the counters up to end_ once `rent` pays for it.
  bool buy(std::size_t rent);
  void catch_up();

  std::vector<Lane> lanes_;
  std::vector<std::size_t> sizes_;
  /// The merge source: U_j(start, end) so far, lane after lane.
  std::vector<Word> running_;
  /// The counters, synced to end synced_, one row of m per step: counts_[
  /// (t + 1)·m + j] elements of task j last occur at step t, and last_ maps
  /// each element to its count's index (row 0 absorbs first occurrences).
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> last_;
  std::size_t synced_ = 0;
  std::size_t end_ = 0;
  /// Rent-or-buy state: the rent since the last catch-up, and the catch-up
  /// cost of steps [synced_, lag_to_).  A range that cannot afford the
  /// counters pays no rent and owes an unreachable lag.
  std::size_t rent_ = 0;
  std::size_t rent_per_start_ = 0;
  std::size_t lag_ = 0;
  std::size_t lag_to_ = 0;
  std::size_t catch_ups_ = 0;
};

template <std::size_t kLanes, typename Price>
void UnionScan::scan(std::size_t end, Price&& price) {
  const std::size_t m = kLanes != 0 ? kLanes : lanes_.size();
  end_ = end;
  const std::span<const std::size_t> sizes(sizes_);
  // The rent lives in a local: price() stores through pointers the
  // compiler could not tell apart from a member.
  std::size_t rent = rent_;
  std::size_t start = end - 1;
  if (rent < lag_ || !buy(rent)) {
    start_merging(m, start);
    for (;;) {
      rent += rent_per_start_;
      if (!price(start, sizes) || start == 0) {
        rent_ = rent;
        return;
      }
      if (rent >= lag_ && buy(rent)) {
        rent = 0;
        break;
      }
      merge(m, --start);
    }
  } else {
    add_counts(m, start, true);
    rent = rent_per_start_;
    if (!price(start, sizes)) {
      rent_ = rent;
      return;
    }
  }
  // The counters are synced to `end`: each lower start adds one row.
  while (start-- > 0) {
    rent += rent_per_start_;
    add_counts(m, start, false);
    if (!price(start, sizes)) break;
  }
  rent_ = rent;
}

/// best[k] is the optimal cost of the first k steps of the range and
/// parent[k] the start (relative to the range) of its last interval.
struct IntervalDp {
  std::vector<Cost> best;
  std::vector<std::size_t> parent;

  /// Interval starts of the optimal partition of the whole range.
  [[nodiscard]] std::vector<std::size_t> starts() const;
};

/// The one interval DP scan kernel (see the header comment): steps [lo, hi)
/// of every task in `tasks`, interval cost hyper + r·len with r = combine
/// over the tasks (`reconfig_upload`) of |U_j| + maxpriv_j, starting from
/// `public_size`.  Prunes with the exact early exit when hyper ≥ 0.
/// Requires at least one task and lo < hi ≤ every task's size.
[[nodiscard]] IntervalDp interval_dp(std::span<const TaskTrace* const> tasks,
                                     std::size_t lo, std::size_t hi,
                                     Cost hyper, Cost public_size,
                                     UploadMode reconfig_upload);

}  // namespace detail

}  // namespace hyperrec
