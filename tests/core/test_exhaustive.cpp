#include "core/exhaustive.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/aligned_dp.hpp"
#include "testutil/oracles.hpp"
#include "workload/generators.hpp"

namespace hyperrec {
namespace {

TEST(Exhaustive, SearchSpaceFormula) {
  EXPECT_DOUBLE_EQ(exhaustive_search_space(1, 5), 16.0);
  EXPECT_DOUBLE_EQ(exhaustive_search_space(2, 5), 256.0);
  EXPECT_DOUBLE_EQ(exhaustive_search_space(3, 9), std::pow(2.0, 24));
}

TEST(Exhaustive, RejectsOversizedInstances) {
  workload::MultiPhasedConfig config;
  config.tasks = 3;
  config.task_config.steps = 12;  // 3·11 = 33 free bits > 24
  config.task_config.universe = 4;
  const auto trace = workload::make_multi_phased(config, 1);
  const auto machine = MachineSpec::uniform_local(3, 4);
  EXPECT_THROW(solve_exhaustive(SolveInstance(trace, machine)),
               PreconditionError);
}

TEST(Exhaustive, MatchesBruteForceHelper) {
  workload::MultiPhasedConfig config;
  config.tasks = 2;
  config.task_config.steps = 6;
  config.task_config.universe = 4;
  config.task_config.phases = 2;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto trace = workload::make_multi_phased(config, seed);
    const auto machine = MachineSpec::uniform_local(2, 4);
    EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                        false};
    const auto solution =
        solve_exhaustive(SolveInstance(trace, machine, options));
    EXPECT_EQ(solution.total(),
              testutil::brute_force_multi_task(trace, machine, options))
        << "seed " << seed;
  }
}

TEST(Exhaustive, NeverWorseThanAlignedDp) {
  workload::MultiPhasedConfig config;
  config.tasks = 2;
  config.task_config.steps = 8;
  config.task_config.universe = 5;
  for (std::uint64_t seed = 10; seed <= 15; ++seed) {
    const auto trace = workload::make_multi_phased(config, seed);
    const auto machine = MachineSpec::uniform_local(2, 5);
    EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                        false};
    const SolveInstance instance(trace, machine, options);
    EXPECT_LE(solve_exhaustive(instance).total(),
              solve_aligned_dp(instance).total())
        << "aligned schedules are a subset of the search space";
  }
}

TEST(Exhaustive, SingleTaskSingleStep) {
  const auto trace = MultiTaskTrace::from_local(
      {3}, {{DynamicBitset::from_string("101")}});
  const auto machine = MachineSpec::local_only({3});
  const auto solution = solve_exhaustive(SolveInstance(trace, machine));
  EXPECT_EQ(solution.total(), 3 + 2);
  EXPECT_EQ(solution.schedule.partial_hyper_steps(), 1u);
}

TEST(Exhaustive, SupportsChangeoverObjective) {
  const auto trace = MultiTaskTrace::from_local(
      {3}, {{DynamicBitset::from_string("110"),
             DynamicBitset::from_string("110"),
             DynamicBitset::from_string("011"),
             DynamicBitset::from_string("011")}});
  const auto machine = MachineSpec::local_only({3});
  EvalOptions options;
  options.changeover = true;
  const auto solution =
      solve_exhaustive(SolveInstance(trace, machine, options));
  // Exhaustive is exact for the changeover objective too; verify the result
  // re-evaluates to its reported total.
  EXPECT_EQ(
      solution.total(),
      evaluate_fully_sync_switch(trace, machine, solution.schedule, options)
          .total);
}

}  // namespace
}  // namespace hyperrec
