#include "core/interval_dp.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "support/cost_math.hpp"
#include "support/rng.hpp"
#include "testutil/oracles.hpp"
#include "testutil/trace_builders.hpp"

namespace hyperrec {
namespace {

TaskTrace trace_from(const std::vector<std::string>& reqs) {
  return testutil::trace_from_strings(reqs);
}

TEST(SingleTaskDp, SingleStepPaysInitPlusSize) {
  const TaskTrace trace = trace_from({"1100"});
  const auto solution = solve_single_task_switch(trace, 10);
  EXPECT_EQ(solution.total, 10 + 2);
  EXPECT_EQ(solution.partition.interval_count(), 1u);
}

TEST(SingleTaskDp, PhasedSequenceSplitsAtPhaseBoundary) {
  // Phase A uses {s0,s1}, phase B uses {s2,s3}; cheap init makes the split
  // worthwhile: split = 2·(2 + 2·3) = 16 < single = 2 + 4·6 = 26.
  const TaskTrace trace =
      trace_from({"1100", "1100", "1100", "0011", "0011", "0011"});
  const auto solution = solve_single_task_switch(trace, 2);
  EXPECT_EQ(solution.total, 16);
  ASSERT_EQ(solution.partition.interval_count(), 2u);
  EXPECT_EQ(solution.partition.starts()[1], 3u);
  EXPECT_EQ(solution.hypercontexts[0].to_string(), "1100");
  EXPECT_EQ(solution.hypercontexts[1].to_string(), "0011");
}

TEST(SingleTaskDp, ExpensiveInitMergesEverything) {
  const TaskTrace trace =
      trace_from({"1100", "1100", "1100", "0011", "0011", "0011"});
  const auto solution = solve_single_task_switch(trace, 100);
  EXPECT_EQ(solution.partition.interval_count(), 1u);
  EXPECT_EQ(solution.total, 100 + 4 * 6);
}

TEST(SingleTaskDp, ZeroInitSplitsEveryStep) {
  const TaskTrace trace = trace_from({"1000", "0100", "0010"});
  const auto solution = solve_single_task_switch(trace, 0);
  EXPECT_EQ(solution.partition.interval_count(), 3u);
  EXPECT_EQ(solution.total, 3);
}

TEST(SingleTaskDp, EmptyRequirementsCostOnlyInit) {
  const TaskTrace trace = trace_from({"0000", "0000"});
  const auto solution = solve_single_task_switch(trace, 5);
  EXPECT_EQ(solution.total, 5);
  EXPECT_EQ(solution.partition.interval_count(), 1u);
}

TEST(SingleTaskDp, EmptyTraceRejected) {
  const TaskTrace trace(4);
  EXPECT_THROW(solve_single_task_switch(trace, 1), PreconditionError);
}

TEST(SingleTaskDp, PrivateDemandEntersIntervalCost) {
  TaskTrace trace(2);
  trace.push_back({DynamicBitset::from_string("10"), 4});
  trace.push_back({DynamicBitset::from_string("10"), 0});
  const auto merged = solve_single_task_switch(trace, 100);
  // One interval: 100 + (1 + 4)·2 = 110.
  EXPECT_EQ(merged.total, 110);
  const auto split = solve_single_task_switch(trace, 1);
  // Two intervals: (1 + 5·1) + (1 + 1·1) = 8.
  EXPECT_EQ(split.total, 8);
  EXPECT_EQ(split.partition.interval_count(), 2u);
}

TEST(SingleTaskDp, MatchesBruteForceOnRandomTraces) {
  Xoshiro256 rng(2024);
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 2 + rng.uniform(9);  // up to 10 steps
    TaskTrace trace(6);
    for (std::size_t i = 0; i < n; ++i) {
      DynamicBitset req(6);
      for (std::size_t s = 0; s < 6; ++s) {
        if (rng.flip(0.35)) req.set(s);
      }
      trace.push_back_local(std::move(req));
    }
    const Cost v = static_cast<Cost>(rng.uniform(8));
    const auto solution = solve_single_task_switch(trace, v);
    EXPECT_EQ(solution.total, testutil::brute_force_single_task(trace, v))
        << "round " << round << " n=" << n << " v=" << v;
  }
}

TEST(SingleTaskDp, SolutionHypercontextsCoverRequirements) {
  Xoshiro256 rng(7);
  TaskTrace trace(8);
  for (int i = 0; i < 20; ++i) {
    DynamicBitset req(8);
    for (std::size_t s = 0; s < 8; ++s) {
      if (rng.flip(0.3)) req.set(s);
    }
    trace.push_back_local(std::move(req));
  }
  const auto solution = solve_single_task_switch(trace, 6);
  for (std::size_t k = 0; k < solution.partition.interval_count(); ++k) {
    const auto [lo, hi] = solution.partition.interval_bounds(k);
    for (std::size_t i = lo; i < hi; ++i) {
      EXPECT_TRUE(trace.at(i).local.subset_of(solution.hypercontexts[k]));
    }
  }
}

// --- changeover variant ----------------------------------------------------

TEST(SingleTaskChangeoverDp, FirstHypercontextDiffsAgainstEmpty) {
  const TaskTrace trace = trace_from({"1100"});
  const auto solution = solve_single_task_switch_changeover(trace, 3);
  // v + |{s0,s1} Δ ∅| + |h|·1 = 3 + 2 + 2 = 7.
  EXPECT_EQ(solution.total, 7);
}

TEST(SingleTaskChangeoverDp, OverlapMakesChangeoverCheap) {
  // Phases {s0,s1} → {s1,s2}: changeover 2 instead of 4.
  const TaskTrace trace = trace_from({"110", "110", "011", "011"});
  const auto solution = solve_single_task_switch_changeover(trace, 1);
  // Split: (1+2+2·2) + (1+2+2·2) = 14; merged: 1+3+3·4 = 16.
  EXPECT_EQ(solution.total, 14);
  EXPECT_EQ(solution.partition.interval_count(), 2u);
}

TEST(SingleTaskChangeoverDp, MatchesBruteForceOnRandomTraces) {
  Xoshiro256 rng(99);
  for (int round = 0; round < 30; ++round) {
    const std::size_t n = 2 + rng.uniform(8);
    TaskTrace trace(5);
    for (std::size_t i = 0; i < n; ++i) {
      DynamicBitset req(5);
      for (std::size_t s = 0; s < 5; ++s) {
        if (rng.flip(0.4)) req.set(s);
      }
      trace.push_back_local(std::move(req));
    }
    const Cost v = static_cast<Cost>(rng.uniform(5));
    const auto solution = solve_single_task_switch_changeover(trace, v);
    EXPECT_EQ(solution.total, testutil::brute_force_changeover(trace, v))
        << "round " << round;
  }
}

TEST(SingleTaskChangeoverDp, ChangeoverNeverCheaperThanPlainMinusDiffs) {
  // The changeover objective dominates the plain objective, so its optimum
  // is at least the plain optimum with the same v.
  Xoshiro256 rng(4);
  TaskTrace trace(6);
  for (int i = 0; i < 12; ++i) {
    DynamicBitset req(6);
    for (std::size_t s = 0; s < 6; ++s) {
      if (rng.flip(0.3)) req.set(s);
    }
    trace.push_back_local(std::move(req));
  }
  const auto plain = solve_single_task_switch(trace, 4);
  const auto change = solve_single_task_switch_changeover(trace, 4);
  EXPECT_GE(change.total, plain.total);
}

// --- overflow regressions: near-max costs must saturate, never wrap -------

TEST(SingleTaskDp, AdversarialInitCostSaturatesInsteadOfWrapping) {
  // best[start] + hyper_init + per_step·len with hyper_init near the Cost
  // maximum used to wrap negative (signed overflow, UB) and make the DP
  // "prefer" the corrupted candidate.  With saturating cost arithmetic the
  // total clamps at the kCostInfinity sentinel and stays a valid partition.
  const TaskTrace trace = trace_from({"1100", "1100", "0011", "0011"});
  for (const Cost huge :
       {kCostInfinity - 1, kCostInfinity, kCostInfinity + 7,
        std::numeric_limits<Cost>::max() / 2,
        std::numeric_limits<Cost>::max() - 1,
        std::numeric_limits<Cost>::max()}) {
    const auto solution = solve_single_task_switch(trace, huge);
    EXPECT_GT(solution.total, 0) << "wrapped negative for v = " << huge;
    EXPECT_LE(solution.total, kCostInfinity) << "v = " << huge;
    EXPECT_GE(solution.partition.interval_count(), 1u);
    EXPECT_LE(solution.partition.interval_count(), trace.size());
    // A huge init cost must never buy extra hyperreconfigurations.
    EXPECT_EQ(solution.partition.interval_count(), 1u) << "v = " << huge;
  }
}

TEST(SingleTaskDp, CostsJustBelowSaturationStayExact) {
  // A single interval of 4 steps with |union| = 4: total = v + 16 — check
  // exactness right up to the clamp edge.
  const TaskTrace trace = trace_from({"1100", "1100", "0011", "0011"});
  const Cost v = kCostInfinity - 100;
  const auto solution = solve_single_task_switch(trace, v);
  EXPECT_EQ(solution.total, v + 16) << "still exact just below the sentinel";
  EXPECT_EQ(solution.partition.interval_count(), 1u);
  const Cost exact_v = 1000;
  EXPECT_EQ(solve_single_task_switch(trace, exact_v).total, exact_v + 16);
}

// --- single_task_switch_cost: the certificate's in-place chunk DP ---------

TEST(SingleTaskSwitchCost, EqualsTheSlicedSolveOnRandomRanges) {
  // Universes on both sides of one word (one-word and multi-word loop),
  // private demand on some steps, ranges with lo > 0, one-step ranges and
  // ranges ending at n, and costs up to the saturating range.
  Xoshiro256 rng(77);
  constexpr std::size_t n = 96;
  for (const std::size_t universe : {12, 64, 65, 130}) {
    TaskTrace trace(universe);
    for (std::size_t l = 0; l < n; ++l) {
      trace.push_back({testutil::random_requirement(rng, universe, 0.3),
                       static_cast<std::uint32_t>(rng.uniform(3))});
    }
    std::vector<std::pair<std::size_t, std::size_t>> ranges = {
        {0, n}, {0, 1}, {n - 1, n}, {37, 38}, {5, n}, {40, 72}};
    for (int k = 0; k < 30; ++k) {
      const std::size_t lo = rng.uniform(n);
      ranges.emplace_back(lo, lo + 1 + rng.uniform(n - lo));
    }
    for (const Cost v : {Cost{0}, Cost{3}, static_cast<Cost>(universe),
                         kCostInfinity - 1}) {
      for (const auto& [lo, hi] : ranges) {
        EXPECT_EQ(single_task_switch_cost(trace, lo, hi, v),
                  solve_single_task_switch(trace.slice(lo, hi), v).total)
            << "universe " << universe << " [" << lo << ", " << hi
            << ") v = " << v;
      }
    }
  }
}

TEST(SingleTaskSwitchCost, RejectsEmptyAndOutOfRangeRanges) {
  const TaskTrace trace = trace_from({"1100", "1100", "0011", "0011"});
  EXPECT_THROW((void)single_task_switch_cost(trace, 2, 2, 1),
               PreconditionError);
  EXPECT_THROW((void)single_task_switch_cost(trace, 3, 5, 1),
               PreconditionError);
  EXPECT_EQ(single_task_switch_cost(trace, 0, 4, 2),
            solve_single_task_switch(trace, 2).total);
}

TEST(SingleTaskChangeoverDp, AdversarialInitCostSaturatesInsteadOfWrapping) {
  const TaskTrace trace = trace_from({"1100", "0011", "1100"});
  for (const Cost huge :
       {kCostInfinity, std::numeric_limits<Cost>::max() / 2,
        std::numeric_limits<Cost>::max()}) {
    const auto solution = solve_single_task_switch_changeover(trace, huge);
    EXPECT_GT(solution.total, 0) << "wrapped negative for v = " << huge;
    EXPECT_LE(solution.total, kCostInfinity) << "v = " << huge;
    EXPECT_EQ(solution.partition.interval_count(), 1u) << "v = " << huge;
  }
}

}  // namespace
}  // namespace hyperrec
