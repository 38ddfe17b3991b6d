// Incremental interval-query statistics for traces that grow step-by-step.
//
// TaskTraceStats (model/trace_stats.hpp) precomputes its sparse tables once
// per instance — the right trade-off for offline solving, but a full rebuild
// per appended step costs O(n·log n·words + n·|support|) and live streams
// append thousands of steps.  The classes here maintain the *same three
// views* (interval unions, O(1) private-demand range maxima, per-switch
// prefix presence counts) under append:
//
//   * TaskStreamStats — one task.  Appending step n adds exactly one row to
//     each sparse-table level (the row covering [n+1−2^k, n+1), computed
//     from two existing level-(k−1) rows) and one prefix entry per support
//     switch, so an append costs O(log n·words + |support|) — amortized
//     O(|X|/64) per step per task for the union work, against the
//     O(n·log n·|X|/64) of a rebuild.  Levels are stored as separately
//     growable arenas (level-major) instead of TaskTraceStats' single flat
//     arena precisely so rows can be appended in place; presence counts are
//     stored column-major (one prefix vector per support switch) so a
//     switch first seen at step i joins with a zero-padded history instead
//     of re-laying-out every row.
//
//   * TraceBuilderStats — a growing synchronized MultiTaskTrace plus one
//     TaskStreamStats per task and the cross-task per-step demand sums with
//     their range-max table (the O(1) feasibility pre-check the streaming
//     triggers poll).  Owns the trace: `append_step` feeds both the trace
//     and every view.  Bulk appends of at least `rebuild_threshold` steps
//     fall back to a from-scratch rebuild of all tables (a rebuild is
//     O(n·log n) total while k single appends cost O(k·log n) — for k on
//     the order of n the rebuild's better constants win, and the fallback
//     also bounds drift if a caller alternates huge splices with queries).
//
// Consistency is testable, not assumed: assert_consistent_with() compares a
// stream-built view against a freshly built TaskTraceStats *bit-identically*
// — every sparse-table row (via the power-of-two ranges that read a single
// row), every presence prefix, every support entry — and the property suite
// runs it at every appended step across word-seam universes.
#pragma once

#include <cstdint>
#include <vector>

#include "model/trace.hpp"
#include "model/trace_stats.hpp"
#include "support/bitset.hpp"

namespace hyperrec::streaming {

/// Incrementally maintained interval-query tables for one growing task
/// trace.  Query API mirrors TaskTraceStats; results are bit-identical to a
/// from-scratch build over the same steps.
class TaskStreamStats {
 public:
  /// Empty stream over `universe` local switches.
  explicit TaskStreamStats(std::size_t universe);

  /// Bulk build over an existing trace: level-by-level table construction
  /// (one OR pass per level, one prefix pass per support column) — the
  /// cheaper-constants path the rebuild_threshold fallback uses.  The
  /// resulting tables are bit-identical to appending every step.
  explicit TaskStreamStats(const TaskTrace& trace);

  /// Appends one step; O(log n·words + |support| + new switches).
  void append(const ContextRequirement& req);

  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }
  [[nodiscard]] std::size_t universe() const noexcept { return universe_; }

  /// Union of local requirements over [lo, hi); O(universe/64).
  [[nodiscard]] DynamicBitset local_union(std::size_t lo,
                                          std::size_t hi) const;

  /// |local_union(lo, hi)| without materialising the union.
  [[nodiscard]] std::size_t local_union_count(std::size_t lo,
                                              std::size_t hi) const;

  /// Maximum private demand over [lo, hi); 0 for an empty range; O(1).
  [[nodiscard]] std::uint32_t max_private_demand(std::size_t lo,
                                                 std::size_t hi) const;

  /// True iff switch b appears in some step of [lo, hi); O(1).
  [[nodiscard]] bool switch_present(std::size_t b, std::size_t lo,
                                    std::size_t hi) const;

  /// Number of steps in [lo, hi) that require switch b; O(1).
  [[nodiscard]] std::uint32_t switch_step_count(std::size_t b, std::size_t lo,
                                                std::size_t hi) const;

  /// Switches that appeared in at least one step, in order of first
  /// appearance (NOT ascending — the stream discovers them online; sort a
  /// copy when ascending order matters).
  [[nodiscard]] const std::vector<std::size_t>& support() const noexcept {
    return support_;
  }

  /// Debug hook: compares this stream-built view bit-identically against a
  /// freshly built TaskTraceStats over the same trace — every sparse-table
  /// row of both tables, every presence prefix of every support switch.
  /// Throws PreconditionError on the first divergence.
  void assert_consistent_with(const TaskTraceStats& full) const;

 private:
  void check_range(std::size_t lo, std::size_t hi) const {
    HYPERREC_ENSURE(lo <= hi && hi <= steps_,
                    "stream stats query range out of bounds");
  }

  struct RowPair {
    const DynamicBitset::Word* a;
    const DynamicBitset::Word* b;
  };
  [[nodiscard]] RowPair union_rows_for(std::size_t lo, std::size_t hi) const;

  std::size_t universe_ = 0;
  std::size_t words_ = 0;
  std::size_t steps_ = 0;

  /// log2_[len] = floor(log2(len)) for len in [1, steps]; grown per append.
  std::vector<std::uint8_t> log2_;
  /// union_levels_[k] holds rows of `words_` words each; row i covers steps
  /// [i, i + 2^k).  Each level is its own growable arena.
  std::vector<std::vector<DynamicBitset::Word>> union_levels_;
  /// priv_levels_[k][i] = max private demand over steps [i, i + 2^k).
  std::vector<std::vector<std::uint32_t>> priv_levels_;
  /// presence_[si][i] = #steps < i requiring support_[si] (column-major).
  std::vector<std::vector<std::uint32_t>> presence_;
  std::vector<std::size_t> support_;
  /// universe → index into support_, or npos for never-required switches.
  std::vector<std::size_t> support_index_;
};

struct TraceBuilderConfig {
  /// Bulk appends of at least this many steps rebuild all tables from
  /// scratch instead of appending step-by-step; 0 disables the fallback.
  std::size_t rebuild_threshold = 1024;
};

/// A growing synchronized multi-task trace bundled with incrementally
/// maintained per-task stats and cross-task demand sums.  The streaming
/// counterpart of SolveInstance's eager MultiTaskTraceStats.
class TraceBuilderStats {
 public:
  /// Empty trace with one task per universe entry (at least one task).
  explicit TraceBuilderStats(const std::vector<std::size_t>& universes,
                             TraceBuilderConfig config = {});

  /// Adopts an existing synchronized trace and builds all views over it.
  explicit TraceBuilderStats(MultiTaskTrace trace,
                             TraceBuilderConfig config = {});

  /// Appends one synchronized step (requirement j goes to task j).
  void append_step(std::vector<ContextRequirement> step);

  /// Appends many steps; falls back to a full rebuild when the chunk is at
  /// least `rebuild_threshold` steps (see TraceBuilderConfig).
  void append_steps(std::vector<std::vector<ContextRequirement>> steps);

  [[nodiscard]] const MultiTaskTrace& trace() const noexcept { return trace_; }
  [[nodiscard]] std::size_t task_count() const noexcept {
    return tasks_.size();
  }
  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }
  [[nodiscard]] const TaskStreamStats& task(std::size_t j) const {
    HYPERREC_ENSURE(j < tasks_.size(), "task index out of range");
    return tasks_[j];
  }

  /// Σ_j private demand of task j at step i; O(1).
  [[nodiscard]] std::uint64_t step_demand_sum(std::size_t i) const;

  /// max over steps [lo, hi) of step_demand_sum; O(1).  The streaming
  /// engine's demand-spike trigger compares a fresh step against this over
  /// the last solved window without touching any per-task table.
  [[nodiscard]] std::uint64_t max_step_demand_sum(std::size_t lo,
                                                  std::size_t hi) const;

  /// MultiTaskTraceStats::block_quota_sum over the growing trace.
  [[nodiscard]] std::uint64_t block_quota_sum(std::size_t lo,
                                              std::size_t hi) const {
    return hyperrec::detail::block_quota_sum(*this, lo, hi);
  }

  /// Number of full rebuilds performed by the bulk-append fallback.
  [[nodiscard]] std::size_t rebuild_count() const noexcept {
    return rebuilds_;
  }

  /// Debug hook: rebuilds MultiTaskTraceStats from the current trace and
  /// asserts every per-task view and every demand sum matches
  /// bit-identically.  Throws PreconditionError on divergence.
  void assert_consistent_with_rebuild() const;

 private:
  void ingest_step_views(const std::vector<ContextRequirement>& step);
  void rebuild_all();

  TraceBuilderConfig config_;
  MultiTaskTrace trace_;
  std::vector<TaskStreamStats> tasks_;
  std::size_t steps_ = 0;
  std::size_t rebuilds_ = 0;

  std::vector<std::uint8_t> log2_;
  std::vector<std::uint64_t> demand_sums_;
  /// demand_levels_[k][i] = max over steps [i, i + 2^k) of the per-step sums.
  std::vector<std::vector<std::uint64_t>> demand_levels_;
};

}  // namespace hyperrec::streaming
