// Property sweeps: the exact solvers must match brute-force ground truth on
// randomized instances across the parameter grid (TEST_P over seeds ×
// configurations).
#include <gtest/gtest.h>

#include "core/aligned_dp.hpp"
#include "core/exhaustive.hpp"
#include "core/interval_dp.hpp"
#include "support/rng.hpp"
#include "testutil/oracles.hpp"
#include "testutil/trace_builders.hpp"
#include "workload/generators.hpp"

namespace hyperrec {
namespace {

struct DpCase {
  std::uint64_t seed;
  std::size_t steps;
  std::size_t universe;
  Cost init;
};

class SingleTaskDpProperty : public ::testing::TestWithParam<DpCase> {};

TEST_P(SingleTaskDpProperty, MatchesBruteForce) {
  const DpCase param = GetParam();
  Xoshiro256 rng(param.seed);
  const TaskTrace trace =
      testutil::random_task_trace(rng, param.steps, param.universe, 0.35);
  const auto solution = solve_single_task_switch(trace, param.init);
  EXPECT_EQ(solution.total,
            testutil::brute_force_single_task(trace, param.init));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SingleTaskDpProperty,
    ::testing::Values(DpCase{1, 4, 4, 0}, DpCase{2, 6, 4, 2},
                      DpCase{3, 8, 6, 5}, DpCase{4, 10, 6, 10},
                      DpCase{5, 12, 8, 3}, DpCase{6, 12, 8, 20},
                      DpCase{7, 14, 5, 1}, DpCase{8, 14, 5, 7},
                      DpCase{9, 16, 6, 12}, DpCase{10, 16, 10, 4},
                      DpCase{11, 18, 4, 6}, DpCase{12, 18, 12, 9},
                      // Above one word: the multi-word loop.
                      DpCase{13, 14, 65, 20}, DpCase{14, 16, 65, 3},
                      DpCase{15, 14, 130, 60}, DpCase{16, 16, 130, 8}));

struct MtCase {
  std::uint64_t seed;
  std::size_t tasks;
  std::size_t steps;
  std::size_t universe;
  UploadMode hyper;
  UploadMode reconfig;
};

class ExhaustiveMatchesBruteForce : public ::testing::TestWithParam<MtCase> {};

TEST_P(ExhaustiveMatchesBruteForce, OnRandomPhasedTraces) {
  const MtCase param = GetParam();
  workload::MultiPhasedConfig config;
  config.tasks = param.tasks;
  config.task_config.steps = param.steps;
  config.task_config.universe = param.universe;
  config.task_config.phases = 2;
  const auto trace = workload::make_multi_phased(config, param.seed);
  const auto machine = MachineSpec::uniform_local(param.tasks, param.universe);
  const EvalOptions options{param.hyper, param.reconfig, false};
  const auto exhaustive =
      solve_exhaustive(SolveInstance(trace, machine, options));
  EXPECT_EQ(exhaustive.total(),
            testutil::brute_force_multi_task(trace, machine, options));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ExhaustiveMatchesBruteForce,
    ::testing::Values(
        MtCase{1, 2, 5, 4, UploadMode::kTaskParallel,
               UploadMode::kTaskSequential},
        MtCase{2, 2, 6, 4, UploadMode::kTaskParallel,
               UploadMode::kTaskParallel},
        MtCase{3, 2, 6, 5, UploadMode::kTaskSequential,
               UploadMode::kTaskSequential},
        MtCase{4, 3, 5, 4, UploadMode::kTaskParallel,
               UploadMode::kTaskSequential},
        MtCase{5, 3, 5, 6, UploadMode::kTaskSequential,
               UploadMode::kTaskParallel},
        MtCase{6, 2, 7, 4, UploadMode::kTaskParallel,
               UploadMode::kTaskSequential}));

struct AlignedCase {
  std::uint64_t seed;
  std::size_t tasks;
  std::size_t steps;
  std::size_t universe;
};

class AlignedDpProperty : public ::testing::TestWithParam<AlignedCase> {};

TEST_P(AlignedDpProperty, MatchesAlignedBruteForceAllDisciplines) {
  const AlignedCase param = GetParam();
  workload::MultiPhasedConfig config;
  config.tasks = param.tasks;
  config.task_config.steps = param.steps;
  config.task_config.universe = param.universe;
  const auto trace = workload::make_multi_phased(config, param.seed);
  const auto machine = MachineSpec::uniform_local(param.tasks, param.universe);
  for (const auto hyper :
       {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
    for (const auto reconfig :
         {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
      const EvalOptions options{hyper, reconfig, false};
      EXPECT_EQ(
          solve_aligned_dp(SolveInstance(trace, machine, options)).total(),
          testutil::brute_force_aligned(trace, machine, options));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, AlignedDpProperty,
                         ::testing::Values(AlignedCase{21, 2, 9, 5},
                                           AlignedCase{22, 3, 9, 4},
                                           AlignedCase{23, 4, 8, 6},
                                           AlignedCase{24, 2, 11, 8},
                                           AlignedCase{25, 3, 10, 5},
                                           AlignedCase{26, 5, 7, 4},
                                           // Above one word.
                                           AlignedCase{27, 2, 10, 65},
                                           AlignedCase{28, 3, 9, 130}));

}  // namespace
}  // namespace hyperrec
