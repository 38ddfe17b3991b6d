#include "model/trace_stats.hpp"

#include <algorithm>

namespace hyperrec {

TaskTraceStats::TaskTraceStats(std::size_t universe)
    : universe_(universe),
      words_((universe + DynamicBitset::kWordBits - 1) /
             DynamicBitset::kWordBits) {}

TaskTraceStats::TaskTraceStats(const TaskTrace& trace)
    : TaskTraceStats(trace.local_universe()) {
  relayout(trace.size());
  steps_ = trace.size();

  // Level 0 holds the steps themselves; level k ORs/maxes two level-(k−1)
  // rows in one pass.
  for (std::size_t i = 0; i < steps_; ++i) {
    const ContextRequirement& req = trace.at(i);
    std::copy(req.local.words().begin(), req.local.words().end(),
              union_row(0, i));
    priv_rows_[i] = req.private_demand;
  }
  for (std::size_t k = 1; k < level_row_start_.size(); ++k) {
    const std::size_t half = std::size_t{1} << (k - 1);
    const std::size_t rows = steps_ - (std::size_t{1} << k) + 1;
    for (std::size_t i = 0; i < rows; ++i) {
      kernels::or_words(union_row(k, i), union_row(k - 1, i),
                        union_row(k - 1, i + half), words_);
      priv_rows_[row(k, i)] =
          std::max(priv_rows_[row(k - 1, i)], priv_rows_[row(k - 1, i + half)]);
    }
  }
}

void TaskTraceStats::relayout(std::size_t capacity) {
  const std::size_t levels = static_cast<std::size_t>(std::bit_width(capacity));
  std::vector<std::size_t> level_row_start(levels);
  std::size_t rows_total = 0;
  for (std::size_t k = 0; k < levels; ++k) {
    level_row_start[k] = rows_total;
    rows_total += capacity - (std::size_t{1} << k) + 1;
  }
  std::vector<DynamicBitset::Word> union_rows(rows_total * words_, 0);
  std::vector<std::uint32_t> priv_rows(rows_total, 0);
  // Level k holds steps_ - 2^k + 1 rows so far.
  for (std::size_t k = 0; (std::size_t{1} << k) <= steps_; ++k) {
    const std::size_t rows = steps_ - (std::size_t{1} << k) + 1;
    std::copy_n(union_row(k, 0), rows * words_,
                union_rows.data() + level_row_start[k] * words_);
    std::copy_n(priv_rows_.data() + row(k, 0), rows,
                priv_rows.data() + level_row_start[k]);
  }
  level_row_start_ = std::move(level_row_start);
  union_rows_ = std::move(union_rows);
  priv_rows_ = std::move(priv_rows);
  capacity_ = capacity;
}

void TaskTraceStats::append(const ContextRequirement& req) {
  HYPERREC_ENSURE(req.local.size() == universe_,
                  "requirement universe differs from the task universe");
  const std::size_t size = steps_ + 1;
  if (size > capacity_) relayout(std::max<std::size_t>(16, 2 * capacity_));

  // One new row per level: level k gains row size − 2^k covering
  // [size − 2^k, size), the OR/max of the two level-(k−1) rows it
  // straddles.  Level k−1 already holds its row for this step (ascending
  // k), and its last row — index size − 2^(k−1) — is the second source.
  std::copy(req.local.words().begin(), req.local.words().end(),
            union_row(0, steps_));
  priv_rows_[row(0, steps_)] = req.private_demand;
  for (std::size_t k = 1; (std::size_t{1} << k) <= size; ++k) {
    const std::size_t half = std::size_t{1} << (k - 1);
    const std::size_t i = size - (std::size_t{1} << k);
    kernels::or_words(union_row(k, i), union_row(k - 1, i),
                      union_row(k - 1, i + half), words_);
    priv_rows_[row(k, i)] =
        std::max(priv_rows_[row(k - 1, i)], priv_rows_[row(k - 1, i + half)]);
  }
  steps_ = size;
}

bool TaskTraceStats::operator==(const TaskTraceStats& other) const {
  if (steps_ != other.steps_ || universe_ != other.universe_) return false;
  for (std::size_t k = 0; (std::size_t{1} << k) <= steps_; ++k) {
    const std::size_t rows = steps_ - (std::size_t{1} << k) + 1;
    const DynamicBitset::Word* unions = union_row(k, 0);
    const std::uint32_t* privs = priv_rows_.data() + row(k, 0);
    if (!std::equal(unions, unions + rows * words_, other.union_row(k, 0)) ||
        !std::equal(privs, privs + rows,
                    other.priv_rows_.data() + other.row(k, 0))) {
      return false;
    }
  }
  return true;
}

DynamicBitset TaskTraceStats::local_union(std::size_t lo,
                                          std::size_t hi) const {
  check_range(lo, hi);
  if (lo == hi || words_ == 0) return DynamicBitset(universe_);
  const RowPair rows = union_rows_for(lo, hi);
  // Tail bits past size() are zero in both rows by DynamicBitset's
  // invariant, so the OR of the rows is already a valid word image.
  return DynamicBitset::from_or_words(universe_, rows.a, rows.b, words_);
}

MultiTaskTraceStats::MultiTaskTraceStats(const MultiTaskTrace& trace)
    : synchronized_(trace.synchronized()) {
  tasks_.reserve(trace.task_count());
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    tasks_.emplace_back(trace.task(j));
  }
  if (!synchronized_ || trace.task_count() == 0) return;

  const std::size_t n = trace.task(0).size();
  if (n == 0) return;
  demand_levels_.resize(static_cast<std::size_t>(std::bit_width(n)));
  std::vector<std::uint64_t>& sums = demand_levels_[0];
  sums.assign(n, 0);
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      sums[i] += trace.task(j).at(i).private_demand;
    }
  }
  for (std::size_t k = 1; k < demand_levels_.size(); ++k) {
    const std::size_t half = std::size_t{1} << (k - 1);
    const std::size_t rows = n - (std::size_t{1} << k) + 1;
    demand_levels_[k].resize(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      demand_levels_[k][i] =
          std::max(demand_levels_[k - 1][i], demand_levels_[k - 1][i + half]);
    }
  }
}

void MultiTaskTraceStats::append_step(
    const std::vector<ContextRequirement>& step) {
  HYPERREC_ENSURE(!tasks_.empty(), "append_step needs at least one task");
  HYPERREC_ENSURE(synchronized_, "append_step requires a synchronized trace");
  HYPERREC_ENSURE(step.size() == tasks_.size(),
                  "append_step needs exactly one requirement per task");
  // Check every requirement before any table changes: a mismatch surfacing
  // after task 0 appended would leave the per-task tables shifted against
  // each other — silently wrong stats for a caller that catches the
  // exception and keeps going.
  for (std::size_t j = 0; j < tasks_.size(); ++j) {
    HYPERREC_ENSURE(step[j].local.size() == tasks_[j].universe(),
                    "requirement universe differs from its task's universe");
  }
  std::uint64_t sum = 0;
  for (std::size_t j = 0; j < tasks_.size(); ++j) {
    tasks_[j].append(step[j]);
    sum += step[j].private_demand;
  }

  const std::size_t size = tasks_[0].steps();
  if (demand_levels_.empty()) demand_levels_.emplace_back();
  demand_levels_[0].push_back(sum);
  for (std::size_t k = 1; (std::size_t{1} << k) <= size; ++k) {
    if (k == demand_levels_.size()) demand_levels_.emplace_back();
    const std::size_t half = std::size_t{1} << (k - 1);
    const std::size_t i = size - (std::size_t{1} << k);
    demand_levels_[k].push_back(
        std::max(demand_levels_[k - 1][i], demand_levels_[k - 1][i + half]));
  }
}

bool MultiTaskTraceStats::operator==(const MultiTaskTraceStats& other) const {
  // demand_levels_ holds exactly the rows the steps cover, so plain vector
  // equality compares every row.
  return synchronized_ == other.synchronized_ && tasks_ == other.tasks_ &&
         demand_levels_ == other.demand_levels_;
}

std::uint64_t MultiTaskTraceStats::step_demand_sum(std::size_t i) const {
  HYPERREC_ENSURE(synchronized_, "demand sums need a synchronized trace");
  HYPERREC_ENSURE(!demand_levels_.empty() && i < demand_levels_[0].size(),
                  "step out of range");
  return demand_levels_[0][i];
}

std::uint64_t MultiTaskTraceStats::max_step_demand_sum(std::size_t lo,
                                                       std::size_t hi) const {
  HYPERREC_ENSURE(synchronized_, "demand sums need a synchronized trace");
  const std::size_t n = demand_levels_.empty() ? 0 : demand_levels_[0].size();
  HYPERREC_ENSURE(lo <= hi && hi <= n, "stats query range out of bounds");
  if (lo == hi) return 0;
  const std::size_t k = detail::sparse_level(hi - lo);
  const std::size_t span = std::size_t{1} << k;
  return std::max(demand_levels_[k][lo], demand_levels_[k][hi - span]);
}

}  // namespace hyperrec
