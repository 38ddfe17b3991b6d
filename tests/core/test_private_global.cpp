#include "core/private_global.hpp"

#include <gtest/gtest.h>

#include "core/coordinate_descent.hpp"

namespace hyperrec {
namespace {

/// Two tasks whose private demand swaps halfway: task 0 needs 6 units then
/// 1, task 1 needs 1 then 6, out of a pool of g = 8.  Serving both peaks in
/// one block needs 12 > 8 units — a mid-trace global hyperreconfiguration is
/// mandatory.
MultiTaskTrace swapping_demand_trace(std::size_t half) {
  MultiTaskTrace trace;
  TaskTrace t0(2);
  TaskTrace t1(2);
  for (std::size_t i = 0; i < 2 * half; ++i) {
    const bool first_half = i < half;
    t0.push_back({DynamicBitset::from_string("10"),
                  first_half ? 6u : 1u});
    t1.push_back({DynamicBitset::from_string("01"),
                  first_half ? 1u : 6u});
  }
  trace.add_task(std::move(t0));
  trace.add_task(std::move(t1));
  return trace;
}

MachineSpec pooled_machine() {
  MachineSpec machine = MachineSpec::uniform_local(2, 2);
  machine.private_global_units = 8;
  machine.global_init = 5;
  return machine;
}

TEST(PrivateGlobal, InsertsMandatoryGlobalBoundary) {
  const auto trace = swapping_demand_trace(4);
  const auto machine = pooled_machine();
  const auto result = solve_private_global(SolveInstance(trace, machine));
  ASSERT_GE(result.solution.schedule.global_boundaries.size(), 2u)
      << "demand swap cannot be served by a single block";
  EXPECT_EQ(result.solution.schedule.global_boundaries.front(), 0u);
}

TEST(PrivateGlobal, QuotasCoverBlockDemands) {
  const auto trace = swapping_demand_trace(4);
  const auto machine = pooled_machine();
  const auto result = solve_private_global(SolveInstance(trace, machine));
  for (const auto& quotas : result.quotas) {
    std::uint64_t total = 0;
    for (const auto quota : quotas) total += quota;
    EXPECT_LE(total, machine.private_global_units);
  }
}

TEST(PrivateGlobal, SolutionValidatesUnderEvaluator) {
  const auto trace = swapping_demand_trace(3);
  const auto machine = pooled_machine();
  const auto result = solve_private_global(SolveInstance(trace, machine));
  EXPECT_EQ(result.solution.total(),
            evaluate_fully_sync_switch(trace, machine,
                                       result.solution.schedule, {})
                .total);
}

TEST(PrivateGlobal, GlobalInitEnteringTotal) {
  const auto trace = swapping_demand_trace(3);
  MachineSpec cheap = pooled_machine();
  cheap.global_init = 0;
  MachineSpec expensive = pooled_machine();
  expensive.global_init = 50;
  const auto cheap_result = solve_private_global(SolveInstance(trace, cheap));
  const auto expensive_result =
      solve_private_global(SolveInstance(trace, expensive));
  EXPECT_LT(cheap_result.solution.total(), expensive_result.solution.total());
}

TEST(PrivateGlobal, FitsInOneBlockWhenPoolIsLarge) {
  const auto trace = swapping_demand_trace(3);
  MachineSpec machine = pooled_machine();
  machine.private_global_units = 14;  // 6+6 fits now…
  machine.global_init = 1000;         // …and extra blocks are prohibitive
  const auto result = solve_private_global(SolveInstance(trace, machine));
  EXPECT_EQ(result.solution.schedule.global_boundaries.size(), 1u);
}

TEST(PrivateGlobal, LocalOnlyMachineRejected) {
  const auto trace = MultiTaskTrace::from_local(
      {2, 2}, {{DynamicBitset(2)}, {DynamicBitset(2)}});
  const auto machine = MachineSpec::uniform_local(2, 2);
  EXPECT_THROW(solve_private_global(SolveInstance(trace, machine)),
               PreconditionError);
}

TEST(PrivateGlobal, InfeasibleDemandThrows) {
  // Peak joint demand 12 with pool 8, but the peaks coincide — no boundary
  // placement can help.
  MultiTaskTrace trace;
  TaskTrace t0(2);
  TaskTrace t1(2);
  for (int i = 0; i < 4; ++i) {
    t0.push_back({DynamicBitset::from_string("10"), 6});
    t1.push_back({DynamicBitset::from_string("01"), 6});
  }
  trace.add_task(std::move(t0));
  trace.add_task(std::move(t1));
  const auto machine = pooled_machine();
  EXPECT_THROW(solve_private_global(SolveInstance(trace, machine)),
               PreconditionError);
}

// Regression: blocks are solved against the parent machine with its
// private-global pool intact (validate_trace and the evaluator's quota check
// need the real unit count) but with global_init zeroed — the outer DP
// charges w per block itself.  A dead store used to *look* like blocks were
// local-only machines; this pins the actual construction.
TEST(PrivateGlobal, BlockMachineKeepsPoolPublicAndZeroGlobalInit) {
  const auto trace = swapping_demand_trace(3);
  MachineSpec machine = pooled_machine();
  machine.public_context_size = 3;
  std::size_t blocks_seen = 0;
  PrivateGlobalConfig config;
  config.inner = [&](const SolveInstance& block, const CancelToken& cancel) {
    ++blocks_seen;
    EXPECT_EQ(block.machine().private_global_units,
              machine.private_global_units);
    EXPECT_EQ(block.machine().public_context_size, 3u);
    EXPECT_EQ(block.machine().global_init, 0);
    EXPECT_TRUE(block.machine().has_global_resources());
    CoordinateDescentConfig cd;
    cd.cancel = cancel;
    return solve_coordinate_descent(block, cd);
  };
  const auto result =
      solve_private_global(SolveInstance(trace, machine), config);
  EXPECT_GT(blocks_seen, 0u);
  EXPECT_EQ(result.solution.total(),
            evaluate_fully_sync_switch(trace, machine,
                                       result.solution.schedule, {})
                .total);
}

// Regression: the stitch used to *silently drop* any global boundaries an
// inner solver placed beyond the block start, leaving the DP's cost estimate
// and the stitched schedule inconsistent.  Inner solutions must treat each
// block as a single global block; anything else is rejected loudly.
TEST(PrivateGlobal, RejectsInnerSolutionsThatSplitTheBlock) {
  const auto trace = swapping_demand_trace(4);
  const auto machine = pooled_machine();
  PrivateGlobalConfig config;
  config.candidates = {0, 4};
  config.inner = [](const SolveInstance& block, const CancelToken&) {
    const std::size_t steps = block.steps();
    const std::size_t mid = steps / 2;
    MultiTaskSchedule schedule;
    for (std::size_t j = 0; j < block.task_count(); ++j) {
      schedule.tasks.push_back(
          Partition::from_starts({0, mid}, steps));
    }
    schedule.global_boundaries = {0, mid};  // extra mid-block boundary
    return make_solution(block, std::move(schedule));
  };
  EXPECT_THROW(solve_private_global(SolveInstance(trace, machine), config),
               PreconditionError);
}

// Regression: feasibility is monotone (range-max quotas only grow with the
// range), so the block scan must `break` at the first infeasible block and
// never solve blocks starting from a candidate the DP cannot reach.  With a
// hot step at index 2 (joint demand 10 > pool 8) the decomposition fails
// overall, after only the three feasible-and-reachable prefix blocks [0,1),
// [0,2) and [1,2) were solved — the old scan solved all 48 feasible blocks.
TEST(PrivateGlobal, MonotoneInfeasibilityPrunesInnerSolves) {
  MultiTaskTrace trace;
  TaskTrace t0(2);
  TaskTrace t1(2);
  for (int i = 0; i < 12; ++i) {
    t0.push_back({DynamicBitset::from_string("10"), i == 2 ? 5u : 1u});
    t1.push_back({DynamicBitset::from_string("01"), i == 2 ? 5u : 1u});
  }
  trace.add_task(std::move(t0));
  trace.add_task(std::move(t1));
  const auto machine = pooled_machine();
  std::size_t invocations = 0;
  PrivateGlobalConfig config;
  config.inner = [&](const SolveInstance& block, const CancelToken& cancel) {
    ++invocations;
    CoordinateDescentConfig cd;
    cd.cancel = cancel;
    return solve_coordinate_descent(block, cd);
  };
  EXPECT_THROW(solve_private_global(SolveInstance(trace, machine), config),
               PreconditionError);
  EXPECT_EQ(invocations, 3u);
}

TEST(PrivateGlobal, ReportsInnerInvocationCount) {
  const auto trace = swapping_demand_trace(3);
  const auto result =
      solve_private_global(SolveInstance(trace, pooled_machine()));
  EXPECT_GT(result.inner_invocations, 0u);
}

TEST(PrivateGlobal, CandidateRestrictionIsHonoured) {
  const auto trace = swapping_demand_trace(4);
  const auto machine = pooled_machine();
  PrivateGlobalConfig config;
  config.candidates = {0, 4};  // exactly the demand-swap point
  const auto result =
      solve_private_global(SolveInstance(trace, machine), config);
  for (const std::size_t g : result.solution.schedule.global_boundaries) {
    EXPECT_TRUE(g == 0 || g == 4);
  }
}

}  // namespace
}  // namespace hyperrec
