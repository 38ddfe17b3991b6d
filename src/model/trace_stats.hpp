// Shared interval-query tables over context-requirement traces.
//
// Every MT-Switch solver and evaluator asks the same three questions about a
// task trace, millions of times, always over step intervals [lo, hi):
//
//   * what is the union of the local requirements?        (hypercontext)
//   * how many switches does that union contain?          (|h^loc|)
//   * what is the maximum private demand?                 (|h^priv|)
//
// TaskTrace::local_union_naive answers them by rescanning the interval —
// O(range·words) per query, called from O(n²) interval loops.  TaskTraceStats
// keeps two sparse tables so every query is cheap:
//
//   * word-level interval unions (binary lifting): any local_union(lo, hi)
//     is the OR of two rows — O(words) = O(universe/64) per query, and
//     local_union_count folds the popcount into the same two-row pass
//     without materialising a bitset;
//   * maxima of the private demand — O(1) queries.
//
// Those two tables are all the switch-model cost reads of an interval: the
// size of its local-requirement union and its peak private demand (§2,
// §4.2).  Nothing else is built.
//
// The tables are built once, level by level in O(n·log n·words), laid out
// for exactly their trace's steps: each table is one flat arena with its
// levels concatenated.  operator== compares every row.
//
// MultiTaskTraceStats bundles one TaskTraceStats per task, and answers the
// §3 quota question of a global block (block_quota_sum) from them.
//
// The tables copy what they need from the trace and keep no pointer into
// it.  They pay off for callers that query many intervals of one trace
// (greedy, coordinate descent, the metaheuristics, exhaustive search, the
// segmented solves); pricing one schedule is cheaper as one pass over its
// steps (model/cost_switch.hpp), which builds no tables — and a stream
// prices each splice as such a pass from its last seam, so it keeps none.
// SolveInstance (model/instance.hpp) owns the trace and builds its stats
// on first use, once, for whichever solver asks first.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "model/trace.hpp"
#include "support/bitset.hpp"
#include "support/bitset_kernels.hpp"

namespace hyperrec {

namespace detail {

/// floor(log2(len)) for len ≥ 1: the sparse-table level whose two
/// overlapping rows cover a range of length len.
[[nodiscard]] inline std::size_t sparse_level(std::size_t len) noexcept {
  return static_cast<std::size_t>(std::bit_width(len)) - 1;
}

}  // namespace detail

/// Interval-query tables for one task's trace.
class TaskTraceStats {
 public:
  /// Builds both tables over `trace` in O(n·log n·words).
  explicit TaskTraceStats(const TaskTrace& trace);

  /// True iff both tables cover the same steps of the same universe and
  /// every row of both tables is equal (each arena holds exactly its
  /// steps' rows).
  [[nodiscard]] bool operator==(const TaskTraceStats&) const = default;

  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }
  [[nodiscard]] std::size_t universe() const noexcept { return universe_; }

  /// Union of local requirements over [lo, hi); O(universe/64).
  [[nodiscard]] DynamicBitset local_union(std::size_t lo,
                                          std::size_t hi) const;

  /// |local_union(lo, hi)| without materialising the union; O(universe/64).
  /// Inline (header-defined): the O(n²) interval DPs call this from other
  /// translation units, and the two-row kernel popcount is cheaper than the
  /// call that would otherwise wrap it.
  [[nodiscard]] std::size_t local_union_count(std::size_t lo,
                                              std::size_t hi) const {
    check_range(lo, hi);
    if (lo == hi || words_ == 0) return 0;
    const RowPair rows = union_rows_for(lo, hi);
    return kernels::or_popcount(rows.a, rows.b, words_);
  }

  /// |base ∪ local_union(lo, hi)| in one fused pass — no materialisation.
  /// `base` must share the task's universe.  Greedy's window scoring uses
  /// this to price extending the current hypercontext.
  [[nodiscard]] std::size_t local_union_count_with(const DynamicBitset& base,
                                                   std::size_t lo,
                                                   std::size_t hi) const {
    check_range(lo, hi);
    HYPERREC_ENSURE(base.size() == universe_,
                    "base universe differs from the task universe");
    if (lo == hi || words_ == 0) return base.count();
    const RowPair rows = union_rows_for(lo, hi);
    return kernels::or3_popcount(rows.a, rows.b, base.words().data(), words_);
  }

  /// Maximum private demand over [lo, hi); 0 for an empty range; O(1).
  [[nodiscard]] std::uint32_t max_private_demand(std::size_t lo,
                                                 std::size_t hi) const {
    check_range(lo, hi);
    if (lo == hi) return 0;
    const std::size_t k = detail::sparse_level(hi - lo);
    const std::size_t span = std::size_t{1} << k;
    return std::max(priv_rows_[row(k, lo)], priv_rows_[row(k, hi - span)]);
  }

 private:
  void check_range(std::size_t lo, std::size_t hi) const {
    HYPERREC_ENSURE(lo <= hi && hi <= steps_, "stats query range out of bounds");
  }

  /// Row index of sparse-table entry (level k, start i); level k holds the
  /// rows covering steps [i, i + 2^k) for i ≤ steps - 2^k.
  [[nodiscard]] std::size_t row(std::size_t k, std::size_t i) const noexcept {
    return level_row_start_[k] + i;
  }
  [[nodiscard]] const DynamicBitset::Word* union_row(std::size_t k,
                                                    std::size_t i) const {
    return union_rows_.data() + row(k, i) * words_;
  }
  [[nodiscard]] DynamicBitset::Word* union_row(std::size_t k, std::size_t i) {
    return union_rows_.data() + row(k, i) * words_;
  }

  /// The two overlapping table rows whose OR covers the non-empty range
  /// [lo, hi) — the one copy of the seam-prone span arithmetic shared by
  /// every union query.
  struct RowPair {
    const DynamicBitset::Word* a;
    const DynamicBitset::Word* b;
  };
  [[nodiscard]] RowPair union_rows_for(std::size_t lo, std::size_t hi) const {
    const std::size_t k = detail::sparse_level(hi - lo);
    const std::size_t span = std::size_t{1} << k;
    return {union_row(k, lo), union_row(k, hi - span)};
  }

  std::size_t steps_ = 0;
  std::size_t universe_ = 0;
  std::size_t words_ = 0;
  /// Per-level row offsets into the flat arenas below (all levels share one
  /// allocation each — a table is built once per instance on the batch
  /// engine's per-job path, so construction stays allocation-lean).  Level
  /// k holds steps_ - 2^k + 1 rows.
  std::vector<std::size_t> level_row_start_;
  /// Interval-union rows, `words_` words each, levels concatenated.
  std::vector<DynamicBitset::Word> union_rows_;
  /// priv_rows_[row(k, i)] = max private demand over steps [i, i + 2^k).
  std::vector<std::uint32_t> priv_rows_;
};

/// Per-task stats for all tasks of a multi-task trace.
class MultiTaskTraceStats {
 public:
  MultiTaskTraceStats() = default;
  explicit MultiTaskTraceStats(const MultiTaskTrace& trace);

  /// True iff every per-task table is equal.
  [[nodiscard]] bool operator==(const MultiTaskTraceStats&) const = default;

  [[nodiscard]] std::size_t task_count() const noexcept {
    return tasks_.size();
  }
  [[nodiscard]] const TaskTraceStats& task(std::size_t j) const {
    HYPERREC_ENSURE(j < tasks_.size(), "task index out of range");
    return tasks_[j];
  }

  /// §3 quota rule: a global block over [lo, hi) gives each task its peak
  /// private demand there as quota, and fits iff the quotas' sum ≤ g.
  [[nodiscard]] std::uint64_t block_quota_sum(std::size_t lo,
                                              std::size_t hi) const {
    std::uint64_t sum = 0;
    for (const TaskTraceStats& task : tasks_) {
      sum += task.max_private_demand(lo, hi);
    }
    return sum;
  }

 private:
  std::vector<TaskTraceStats> tasks_;
};

}  // namespace hyperrec
