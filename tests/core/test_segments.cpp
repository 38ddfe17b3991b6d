// core/segments: the boundary DP against brute-force enumeration of every
// block decomposition, the stitch against hand-built starts, the in-place
// tail splice (Partition::replace_tail) against the stitch, and the block
// quota rule of the stats against the naive per-task oracle.
#include "core/segments.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "model/trace_stats.hpp"
#include "support/ensure.hpp"
#include "support/rng.hpp"

namespace hyperrec {
namespace {

/// A random block-DP instance over `c` candidate starts: block [a, b) of
/// candidate indices (b == c is the end) costs cost[a][b] and is feasible
/// iff b <= limit[a].  limit is non-decreasing, so infeasibility is
/// monotone under containment, as the DP requires.
struct DpCase {
  std::vector<std::size_t> starts;
  std::size_t n = 0;
  std::vector<std::vector<Cost>> cost;
  std::vector<std::size_t> limit;
};

DpCase random_case(Xoshiro256& rng) {
  DpCase dp;
  const std::size_t c = 1 + rng.uniform(12);  // 1..12 edges
  dp.n = c + rng.uniform(4);
  // c distinct starts in [0, n), always including 0.
  std::vector<std::size_t> pool;
  for (std::size_t s = 1; s < dp.n; ++s) pool.push_back(s);
  dp.starts.push_back(0);
  while (dp.starts.size() < c) {
    const std::size_t pick = rng.uniform(pool.size());
    dp.starts.push_back(pool[pick]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  std::sort(dp.starts.begin(), dp.starts.end());
  dp.cost.assign(c, std::vector<Cost>(c + 1, 0));
  for (auto& row : dp.cost) {
    for (Cost& value : row) value = static_cast<Cost>(rng.uniform(20));
  }
  std::size_t previous = 0;
  for (std::size_t a = 0; a < c; ++a) {
    const std::size_t reach =
        rng.flip(0.1) ? a : std::min(c, a + 1 + rng.uniform(4));
    previous = std::max(previous, reach);
    dp.limit.push_back(previous);
  }
  return dp;
}

struct BruteForce {
  bool feasible = false;
  Cost best = 0;
};

/// Tries every subset of the edges 1..c-1 as extra block starts.
BruteForce enumerate(const DpCase& dp) {
  const std::size_t c = dp.starts.size();
  BruteForce result;
  for (std::uint32_t mask = 0; mask < (1u << (c - 1)); ++mask) {
    std::vector<std::size_t> chosen{0};
    for (std::size_t e = 1; e < c; ++e) {
      if (mask & (1u << (e - 1))) chosen.push_back(e);
    }
    chosen.push_back(c);
    bool ok = true;
    Cost total = 0;
    for (std::size_t k = 0; k + 1 < chosen.size() && ok; ++k) {
      ok = chosen[k + 1] <= dp.limit[chosen[k]];
      total += dp.cost[chosen[k]][chosen[k + 1]];
    }
    if (ok && (!result.feasible || total < result.best)) {
      result.feasible = true;
      result.best = total;
    }
  }
  return result;
}

TEST(BlockDp, MatchesBruteForceAndPricesOnlyReachableRows) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Xoshiro256 rng(seed);
    const DpCase dp = random_case(rng);
    const std::size_t c = dp.starts.size();
    std::map<std::size_t, std::size_t> index;  // step -> candidate index
    for (std::size_t e = 0; e < c; ++e) index[dp.starts[e]] = e;
    index[dp.n] = c;

    std::size_t calls = 0;
    std::map<std::size_t, std::size_t> kept;  // end step -> last kept start
    const auto cost = [&](std::size_t lo,
                          std::size_t hi) -> std::optional<Cost> {
      ++calls;
      const std::size_t a = index.at(lo);
      const std::size_t b = index.at(hi);
      if (b > dp.limit[a]) return std::nullopt;
      return dp.cost[a][b];
    };
    const auto keep = [&](std::size_t lo, std::size_t hi) { kept[hi] = lo; };

    // Rows reachable from step 0, and the calls each of them must make:
    // every feasible block plus the one that breaks the row.
    std::vector<bool> reachable(c + 1, false);
    reachable[0] = true;
    std::size_t expected_calls = 0;
    for (std::size_t a = 0; a < c; ++a) {
      if (!reachable[a]) continue;
      for (std::size_t b = a + 1; b <= dp.limit[a]; ++b) reachable[b] = true;
      expected_calls += dp.limit[a] - a + (dp.limit[a] < c ? 1 : 0);
    }

    const BruteForce oracle = enumerate(dp);
    if (!oracle.feasible) {
      EXPECT_THROW((void)solve_block_dp(dp.starts, dp.n, cost, keep),
                   PreconditionError)
          << "seed " << seed;
      EXPECT_EQ(calls, expected_calls) << "seed " << seed;
      continue;
    }
    const std::vector<std::size_t> chosen =
        solve_block_dp(dp.starts, dp.n, cost, keep);
    EXPECT_EQ(calls, expected_calls) << "seed " << seed;
    ASSERT_FALSE(chosen.empty());
    EXPECT_EQ(chosen.front(), 0u);
    Cost total = 0;
    for (std::size_t k = 0; k < chosen.size(); ++k) {
      const std::size_t lo = chosen[k];
      const std::size_t hi = k + 1 < chosen.size() ? chosen[k + 1] : dp.n;
      ASSERT_TRUE(index.count(lo) && index.count(hi)) << "seed " << seed;
      const std::size_t a = index.at(lo);
      const std::size_t b = index.at(hi);
      ASSERT_LT(a, b) << "seed " << seed;
      ASSERT_LE(b, dp.limit[a]) << "infeasible block, seed " << seed;
      total += dp.cost[a][b];
      // The keep hook saw exactly the block the DP settled on for this end.
      EXPECT_EQ(kept.at(hi), lo) << "seed " << seed;
    }
    EXPECT_EQ(total, oracle.best) << "seed " << seed;
  }
}

TEST(BlockDp, SaturatesHugeCosts) {
  // [0, 1) costs 5, the whole range 100, and [1, 3) the Cost maximum: an
  // unsaturated 5 + max wraps negative and would win.
  const auto cost = [](std::size_t lo, std::size_t hi) -> std::optional<Cost> {
    if (lo == 1) return std::numeric_limits<Cost>::max();
    return hi == 1 ? Cost{5} : Cost{100};
  };
  EXPECT_EQ(solve_block_dp({0, 1}, 3, cost), (std::vector<std::size_t>{0}));
}

TEST(BlockDp, RejectsMalformedStarts) {
  const auto free_block = [](std::size_t, std::size_t) -> std::optional<Cost> {
    return Cost{1};
  };
  EXPECT_THROW((void)solve_block_dp({}, 4, free_block), PreconditionError);
  EXPECT_THROW((void)solve_block_dp({1, 2}, 4, free_block), PreconditionError);
  EXPECT_THROW((void)solve_block_dp({0, 4}, 4, free_block), PreconditionError);
}

TEST(Stitch, RandomPiecesMatchHandBuiltStarts) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Xoshiro256 rng(seed);
    const std::size_t m = 1 + rng.uniform(3);
    const std::size_t count = 1 + rng.uniform(4);
    std::vector<MultiTaskSchedule> schedules;
    std::vector<std::size_t> offsets;
    std::vector<std::size_t> lengths;
    std::vector<std::vector<std::size_t>> expected(m);
    std::vector<std::size_t> expected_global;
    std::size_t n = 0;
    for (std::size_t p = 0; p < count; ++p) {
      const std::size_t length = 1 + rng.uniform(6);
      // A piece may be the prefix of a longer schedule.
      const std::size_t span = length + rng.uniform(3);
      MultiTaskSchedule schedule;
      DynamicBitset common(span);  // steps that start an interval everywhere
      common.set(0);
      for (std::size_t s = 1; s < span; ++s) {
        if (rng.flip(0.3)) common.set(s);
      }
      for (std::size_t j = 0; j < m; ++j) {
        DynamicBitset mask = common;
        for (std::size_t s = 1; s < span; ++s) {
          if (rng.flip(0.3)) mask.set(s);
        }
        schedule.tasks.push_back(Partition::from_boundary_mask(mask));
        for (const std::size_t s : schedule.tasks.back().starts()) {
          if (s < length) expected[j].push_back(n + s);
        }
      }
      if (rng.flip(0.5)) {
        common.for_each_set([&](std::size_t s) {
          schedule.global_boundaries.push_back(s);
          if (s < length) expected_global.push_back(n + s);
        });
      }
      schedules.push_back(std::move(schedule));
      offsets.push_back(n);
      lengths.push_back(length);
      n += length;
    }
    std::vector<SchedulePiece> pieces;
    for (std::size_t p = 0; p < count; ++p) {
      pieces.push_back({offsets[p], schedules[p], lengths[p]});
    }
    const MultiTaskSchedule stitched = stitch(pieces);
    ASSERT_EQ(stitched.tasks.size(), m);
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(stitched.tasks[j].n(), n) << "seed " << seed;
      EXPECT_EQ(stitched.tasks[j].starts(), expected[j]) << "seed " << seed;
    }
    EXPECT_EQ(stitched.global_boundaries, expected_global) << "seed " << seed;
    EXPECT_NO_THROW(stitched.validate(m, n)) << "seed " << seed;
  }
}

TEST(Stitch, RejectsMalformedPieces) {
  const MultiTaskSchedule two = MultiTaskSchedule::all_single(2, 4);
  const MultiTaskSchedule one = MultiTaskSchedule::all_single(1, 4);
  MultiTaskSchedule past_end = two;
  past_end.global_boundaries = {0, 6};
  EXPECT_THROW((void)stitch({}), PreconditionError);
  EXPECT_THROW((void)stitch({{0, two, 4}, {5, two, 4}}), PreconditionError);
  EXPECT_THROW((void)stitch({{1, two, 4}}), PreconditionError);
  EXPECT_THROW((void)stitch({{0, two, 4}, {4, one, 4}}), PreconditionError);
  EXPECT_THROW((void)stitch({{0, two, 5}}), PreconditionError);
  // Cut to its first 2 steps the piece looks fine, but it is not a valid
  // schedule of its own 4 steps.
  EXPECT_THROW((void)stitch({{0, past_end, 2}}), PreconditionError);
}

/// A random valid schedule of m tasks over n steps; with `globals`, some
/// steps that start an interval in every task (0 among them) are global
/// boundaries.
MultiTaskSchedule random_schedule(Xoshiro256& rng, std::size_t m,
                                  std::size_t n, bool globals) {
  DynamicBitset common(n);
  common.set(0);
  for (std::size_t s = 1; s < n; ++s) {
    if (rng.flip(0.2)) common.set(s);
  }
  MultiTaskSchedule schedule;
  for (std::size_t j = 0; j < m; ++j) {
    DynamicBitset mask = common;
    for (std::size_t s = 1; s < n; ++s) {
      if (rng.flip(0.3)) mask.set(s);
    }
    schedule.tasks.push_back(Partition::from_boundary_mask(mask));
  }
  if (globals) {
    common.for_each_set(
        [&](std::size_t s) { schedule.global_boundaries.push_back(s); });
  }
  return schedule;
}

TEST(TailSplice, EqualsTheStitchOfPrefixAndWindow) {
  // Splicing a window schedule onto a schedule's first lo steps in place —
  // Partition::replace_tail on every task, replace_tail on the global
  // boundaries — gives exactly the stitch of the same two pieces: the same
  // starts, n() and global boundaries.  Putting the replaced entries back
  // the same way restores the schedule.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Xoshiro256 rng(seed * 0x7A11);
    const std::size_t m = 1 + rng.uniform(3);
    const std::size_t n = 1 + rng.uniform(30);
    const bool globals = rng.flip(0.5);
    const MultiTaskSchedule base = random_schedule(rng, m, n, globals);
    const std::size_t lo = rng.uniform(n + 1);  // 0..n
    const std::size_t w = 1 + rng.uniform(12);
    const MultiTaskSchedule window = random_schedule(rng, m, w, globals);

    std::vector<SchedulePiece> pieces;
    if (lo > 0) pieces.push_back({0, base, lo});
    pieces.push_back({lo, window, w});
    const MultiTaskSchedule expected = stitch(pieces);

    MultiTaskSchedule spliced = base;
    std::vector<std::vector<std::size_t>> replaced(m);
    for (std::size_t j = 0; j < m; ++j) {
      const std::vector<std::size_t>& starts = base.tasks[j].starts();
      replaced[j].assign(std::lower_bound(starts.begin(), starts.end(), lo),
                         starts.end());
      spliced.tasks[j].replace_tail(lo, window.tasks[j].starts(), lo, lo + w);
    }
    const std::vector<std::size_t>& bounds = base.global_boundaries;
    const std::vector<std::size_t> replaced_globals(
        std::lower_bound(bounds.begin(), bounds.end(), lo), bounds.end());
    replace_tail(spliced.global_boundaries, lo, window.global_boundaries, lo);
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(spliced.tasks[j].starts(), expected.tasks[j].starts())
          << "seed " << seed;
      EXPECT_EQ(spliced.tasks[j].n(), expected.tasks[j].n()) << "seed " << seed;
    }
    EXPECT_EQ(spliced.global_boundaries, expected.global_boundaries)
        << "seed " << seed;

    for (std::size_t j = 0; j < m; ++j) {
      spliced.tasks[j].replace_tail(lo, replaced[j], 0, n);
      EXPECT_EQ(spliced.tasks[j].starts(), base.tasks[j].starts())
          << "seed " << seed;
      EXPECT_EQ(spliced.tasks[j].n(), n) << "seed " << seed;
    }
    replace_tail(spliced.global_boundaries, lo, replaced_globals, 0);
    EXPECT_EQ(spliced.global_boundaries, base.global_boundaries)
        << "seed " << seed;
  }
}

TEST(TailSplice, RejectsTailsThatBreakThePartition) {
  Partition partition = Partition::from_starts({0, 3, 5}, 8);
  const std::vector<std::size_t> no_zero{1, 2};
  const std::vector<std::size_t> unsorted{0, 2, 1};
  const std::vector<std::size_t> window{0, 2};
  // Nothing kept before step 0, so the tail must start there.
  EXPECT_THROW(partition.replace_tail(0, no_zero, 0, 8), PreconditionError);
  EXPECT_THROW(partition.replace_tail(4, unsorted, 4, 8), PreconditionError);
  // A tail start before lo, past the end, or an end before lo.
  EXPECT_THROW(partition.replace_tail(4, window, 2, 8), PreconditionError);
  EXPECT_THROW(partition.replace_tail(4, window, 4, 6), PreconditionError);
  EXPECT_THROW(partition.replace_tail(4, {}, 0, 3), PreconditionError);
  // Each rejection left the partition as it was.
  EXPECT_EQ(partition.starts(), (std::vector<std::size_t>{0, 3, 5}));
  EXPECT_EQ(partition.n(), 8u);
  partition.replace_tail(4, window, 4, 7);
  EXPECT_EQ(partition.starts(), (std::vector<std::size_t>{0, 3, 4, 6}));
  EXPECT_EQ(partition.n(), 7u);
}

MultiTaskTrace random_demand_trace(Xoshiro256& rng, std::size_t tasks,
                                   std::size_t steps) {
  MultiTaskTrace trace;
  for (std::size_t j = 0; j < tasks; ++j) {
    TaskTrace task(3);
    for (std::size_t i = 0; i < steps; ++i) {
      task.push_back({DynamicBitset(3), static_cast<std::uint32_t>(
                                            rng.uniform(7))});
    }
    trace.add_task(std::move(task));
  }
  return trace;
}

std::uint64_t naive_quota_sum(const MultiTaskTrace& trace, std::size_t lo,
                              std::size_t hi) {
  std::uint64_t sum = 0;
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    sum += trace.task(j).max_private_demand_naive(lo, hi);
  }
  return sum;
}

TEST(BlockQuotaSum, BothStatsViewsMatchTheNaiveOracle) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Xoshiro256 rng(seed);
    const std::size_t tasks = 1 + rng.uniform(3);
    const MultiTaskTrace trace = random_demand_trace(rng, tasks, 17);
    const MultiTaskTraceStats stats(trace);
    for (std::size_t lo = 0; lo <= trace.steps(); ++lo) {
      for (std::size_t hi = lo; hi <= trace.steps(); ++hi) {
        EXPECT_EQ(stats.block_quota_sum(lo, hi),
                  naive_quota_sum(trace, lo, hi))
            << "seed " << seed << " [" << lo << "," << hi << ")";
      }
    }
    EXPECT_THROW((void)stats.block_quota_sum(0, trace.steps() + 1),
                 PreconditionError);
  }
}

}  // namespace
}  // namespace hyperrec
