#include "core/greedy.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "support/cost_math.hpp"
#include "testutil/trace_builders.hpp"

namespace hyperrec {
namespace {

MultiTaskTrace phased(std::uint64_t seed, std::size_t tasks, std::size_t steps,
                      std::size_t universe) {
  return testutil::phased_multi(seed, tasks, steps, universe, /*phases=*/3);
}

TEST(Greedy, ProducesValidSchedules) {
  const auto trace = phased(1, 4, 30, 8);
  const auto machine = MachineSpec::uniform_local(4, 8);
  const auto solution = solve_greedy(SolveInstance(trace, machine));
  EXPECT_NO_THROW(solution.schedule.validate(4, 30));
  EXPECT_EQ(
      solution.total(),
      evaluate_fully_sync_switch(trace, machine, solution.schedule, {}).total);
}

TEST(Greedy, NearMaximumHyperCostOpensNoInterval) {
  // At v = max − 1000 no window gain can pay for a hyperreconfiguration;
  // the window test must saturate instead of wrapping negative.
  const auto trace = phased(5, 3, 32, 256);
  MachineSpec machine = MachineSpec::uniform_local(3, 256);
  for (TaskSpec& task : machine.tasks) {
    task.local_init = std::numeric_limits<Cost>::max() - 1000;
  }
  const auto solution = solve_greedy(SolveInstance(trace, machine));
  for (const Partition& partition : solution.schedule.tasks) {
    EXPECT_EQ(partition.interval_count(), 1u);
  }
  EXPECT_EQ(solution.total(), kCostInfinity);
}

TEST(Greedy, SplitsOnSharpPhaseChange) {
  // Two crisp phases with disjoint windows: greedy must hyperreconfigure.
  const auto trace = MultiTaskTrace::from_local(
      {6}, {{DynamicBitset::from_string("111000"),
             DynamicBitset::from_string("111000"),
             DynamicBitset::from_string("111000"),
             DynamicBitset::from_string("000111"),
             DynamicBitset::from_string("000111"),
             DynamicBitset::from_string("000111")}});
  const auto machine = MachineSpec::local_only({6});
  GreedyConfig config;
  config.window = 3;
  const auto solution = solve_greedy(SolveInstance(trace, machine), config);
  EXPECT_GE(solution.schedule.tasks[0].interval_count(), 2u);
  EXPECT_TRUE(solution.schedule.tasks[0].is_boundary(3))
      << "phase boundary at step 3 must be detected";
}

TEST(Greedy, ConstantTraceStaysSingleInterval) {
  const auto trace = MultiTaskTrace::from_local(
      {4}, {{DynamicBitset::from_string("1100"),
             DynamicBitset::from_string("1100"),
             DynamicBitset::from_string("1100"),
             DynamicBitset::from_string("1100")}});
  const auto machine = MachineSpec::local_only({4});
  const auto solution = solve_greedy(SolveInstance(trace, machine));
  EXPECT_EQ(solution.schedule.tasks[0].interval_count(), 1u);
}

TEST(Greedy, BeatsNeverHyperreconfiguringOnPhasedLoads) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto trace = phased(seed, 3, 40, 10);
    const auto machine = MachineSpec::uniform_local(3, 10);
    EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                        false};
    const auto greedy = solve_greedy(SolveInstance(trace, machine, options));
    const Cost single =
        evaluate_fully_sync_switch(trace, machine,
                                   MultiTaskSchedule::all_single(3, 40),
                                   options)
            .total;
    EXPECT_LE(greedy.total(), single) << "seed " << seed;
  }
}

TEST(Greedy, WindowOneIsPurelyReactive) {
  const auto trace = phased(2, 2, 20, 6);
  const auto machine = MachineSpec::uniform_local(2, 6);
  GreedyConfig config;
  config.window = 1;
  const auto solution = solve_greedy(SolveInstance(trace, machine), config);
  EXPECT_NO_THROW(solution.schedule.validate(2, 20));
}

TEST(Greedy, ZeroWindowRejected) {
  const auto trace = phased(1, 2, 10, 4);
  const auto machine = MachineSpec::uniform_local(2, 4);
  GreedyConfig config;
  config.window = 0;
  EXPECT_THROW(solve_greedy(SolveInstance(trace, machine),
                            config), PreconditionError);
}

}  // namespace
}  // namespace hyperrec
