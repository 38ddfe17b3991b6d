#include "model/trace_stats.hpp"

#include <algorithm>

namespace hyperrec {

TaskTraceStats::TaskTraceStats(const TaskTrace& trace)
    : steps_(trace.size()),
      universe_(trace.local_universe()),
      words_((universe_ + DynamicBitset::kWordBits - 1) /
             DynamicBitset::kWordBits) {
  // One flat arena per table; level k holds steps_ - 2^k + 1 rows.
  const auto levels = static_cast<std::size_t>(std::bit_width(steps_));
  level_row_start_.resize(levels);
  std::size_t rows_total = 0;
  for (std::size_t k = 0; k < levels; ++k) {
    level_row_start_[k] = rows_total;
    rows_total += steps_ - (std::size_t{1} << k) + 1;
  }
  union_rows_.assign(rows_total * words_, 0);
  priv_rows_.assign(rows_total, 0);

  // Level 0 holds the steps themselves; level k ORs/maxes two level-(k−1)
  // rows in one pass.
  for (std::size_t i = 0; i < steps_; ++i) {
    const ContextRequirement& req = trace.at(i);
    std::copy(req.local.words().begin(), req.local.words().end(),
              union_row(0, i));
    priv_rows_[i] = req.private_demand;
  }
  for (std::size_t k = 1; k < levels; ++k) {
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

DynamicBitset TaskTraceStats::local_union(std::size_t lo,
                                          std::size_t hi) const {
  check_range(lo, hi);
  if (lo == hi || words_ == 0) return DynamicBitset(universe_);
  const RowPair rows = union_rows_for(lo, hi);
  // Tail bits past size() are zero in both rows by DynamicBitset's
  // invariant, so the OR of the rows is already a valid word image.
  return DynamicBitset::from_or_words(universe_, rows.a, rows.b, words_);
}

MultiTaskTraceStats::MultiTaskTraceStats(const MultiTaskTrace& trace) {
  tasks_.reserve(trace.task_count());
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    tasks_.emplace_back(trace.task(j));
  }
}

}  // namespace hyperrec
