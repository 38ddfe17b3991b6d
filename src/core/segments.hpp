// Global blocks (§3, §4).  A global hyperreconfiguration (cost w) starts a
// block: it re-assigns the private-global quotas and makes every task
// hyperreconfigure, so a schedule's cost splits into independent blocks,
// each bound by the quota rule MultiTaskTraceStats::block_quota_sum ≤ g —
// read from a solve's built tables and a stream's appended ones alike.
// solve_private_global, solve_hierarchical and StreamingEngine share the
// block DP and the schedule stitch below.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "model/schedule.hpp"
#include "model/types.hpp"

namespace hyperrec {

/// Cost of the block over steps [lo, hi), or nullopt when it breaks the
/// quota rule.  Infeasibility must be monotone: a block containing an
/// infeasible block is infeasible.
using BlockCostFn =
    std::function<std::optional<Cost>(std::size_t lo, std::size_t hi)>;

/// Told when the block [lo, hi) just priced became the cheapest one found
/// so far ending at hi, so a caller can keep one priced payload per end.
using BlockKeepFn = std::function<void(std::size_t lo, std::size_t hi)>;

/// Exact boundary DP: `starts` (sorted, unique, starting with 0) are the
/// steps where a block may begin; the last block ends at n.  Returns the
/// block starts of the cheapest decomposition.  A row stops at its first
/// infeasible block, rows the DP cannot reach are never priced, costs add
/// saturating, and ties keep the earliest start.  Throws PreconditionError
/// when no decomposition is feasible.
[[nodiscard]] std::vector<std::size_t> solve_block_dp(
    const std::vector<std::size_t>& starts, std::size_t n,
    const BlockCostFn& block_cost, const BlockKeepFn& keep = {});

/// Throws PreconditionError unless the only global boundary of `schedule`
/// is step 0: the block DP charges w per block, so a block or segment
/// solve must not split its range with further global boundaries.
void ensure_single_block(const MultiTaskSchedule& schedule);

/// The first `length` steps of `schedule`, placed at step `offset`.
struct SchedulePiece {
  std::size_t offset;
  const MultiTaskSchedule& schedule;
  std::size_t length;
};

/// Concatenates pieces that tile [0, n) in order into one schedule over n
/// steps, shifting task and global boundaries by each offset.  Each piece
/// must be a valid schedule covering at least its `length` steps (throws
/// PreconditionError otherwise).  Partitions start at 0, so every offset is
/// a boundary of every task and the result is valid by construction.
[[nodiscard]] MultiTaskSchedule stitch(
    const std::vector<SchedulePiece>& pieces);

}  // namespace hyperrec
