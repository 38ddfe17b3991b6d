#include "core/segments.hpp"

#include <algorithm>

#include "support/cost_math.hpp"
#include "support/ensure.hpp"

namespace hyperrec {

std::vector<std::size_t> solve_block_dp(const std::vector<std::size_t>& starts,
                                        std::size_t n,
                                        const BlockCostFn& block_cost,
                                        const BlockKeepFn& keep) {
  HYPERREC_ENSURE(!starts.empty() && starts.front() == 0 && starts.back() < n,
                  "block starts must begin at step 0 and lie below n");
  const std::size_t c = starts.size();
  const auto end = [&](std::size_t b) { return b < c ? starts[b] : n; };
  // best[b]: cheapest decomposition of [0, end(b)); parent[b]: the start
  // index of its last block.
  std::vector<Cost> best(c + 1, kCostInfinity);
  std::vector<std::size_t> parent(c + 1, 0);
  best[0] = 0;
  for (std::size_t a = 0; a < c; ++a) {
    if (best[a] >= kCostInfinity) continue;  // unreachable from step 0
    for (std::size_t b = a + 1; b <= c; ++b) {
      const std::optional<Cost> cost = block_cost(starts[a], end(b));
      if (!cost.has_value()) break;  // monotone: longer blocks fail too
      const Cost candidate = cost_add(best[a], *cost);
      if (candidate < best[b]) {
        best[b] = candidate;
        parent[b] = a;
        if (keep) keep(starts[a], end(b));
      }
    }
  }
  HYPERREC_ENSURE(best[c] < kCostInfinity,
                  "no feasible global-block decomposition exists");

  std::vector<std::size_t> chosen;
  for (std::size_t b = c; b != 0; b = parent[b]) {
    chosen.push_back(starts[parent[b]]);
  }
  std::reverse(chosen.begin(), chosen.end());
  return chosen;
}

void ensure_single_block(const MultiTaskSchedule& schedule) {
  HYPERREC_ENSURE(schedule.global_boundaries == std::vector<std::size_t>{0},
                  "a block or segment solution split its range with extra "
                  "global hyperreconfigurations; the block DP owns the block "
                  "structure (add candidate starts instead)");
}

MultiTaskSchedule stitch(const std::vector<SchedulePiece>& pieces) {
  HYPERREC_ENSURE(!pieces.empty(), "stitch needs at least one piece");
  const std::size_t m = pieces.front().schedule.tasks.size();
  std::vector<std::vector<std::size_t>> starts(m);
  MultiTaskSchedule stitched;
  std::size_t n = 0;
  for (const SchedulePiece& piece : pieces) {
    const std::vector<Partition>& tasks = piece.schedule.tasks;
    HYPERREC_ENSURE(piece.offset == n && m > 0 && tasks.size() == m &&
                        piece.length <= tasks.front().n(),
                    "stitch pieces must tile the steps in order, one "
                    "partition per task each");
    // A malformed piece (say, a window solution with a global boundary past
    // its end) is rejected here rather than silently cut to `length`.
    piece.schedule.validate(m, tasks.front().n());
    for (std::size_t j = 0; j < m; ++j) {
      for (const std::size_t s : tasks[j].starts()) {
        if (s >= piece.length) break;
        starts[j].push_back(piece.offset + s);
      }
    }
    for (const std::size_t g : piece.schedule.global_boundaries) {
      if (g >= piece.length) break;
      stitched.global_boundaries.push_back(piece.offset + g);
    }
    n += piece.length;
  }
  stitched.tasks.reserve(m);
  for (std::vector<std::size_t>& task_starts : starts) {
    stitched.tasks.push_back(Partition::from_starts(std::move(task_starts), n));
  }
  return stitched;
}

}  // namespace hyperrec
