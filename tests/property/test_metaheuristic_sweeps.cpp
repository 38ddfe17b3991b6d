// Parameterized robustness sweeps for the stochastic solvers: across GA/SA
// configurations and seeds, solutions must stay valid, consistent with the
// evaluator, and within a bounded factor of the certified optimum
// (Theorem-1 DP provides ground truth at m = 2).
#include <gtest/gtest.h>

#include "core/annealing.hpp"
#include "core/genetic.hpp"
#include "core/theorem1.hpp"
#include "workload/generators.hpp"

namespace hyperrec {
namespace {

struct SweepCase {
  std::uint64_t seed;
  std::size_t population;
  std::size_t generations;
  double crossover;
  double mutation;
};

class GaParameterSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  void SetUp() override {
    workload::MultiPhasedConfig config;
    config.tasks = 2;
    config.task_config.steps = 24;
    config.task_config.universe = 8;
    config.task_config.phases = 3;
    trace_ = workload::make_multi_phased(config, 77);
    machine_ = MachineSpec::uniform_local(2, 8);
    options_ = EvalOptions{UploadMode::kTaskParallel,
                           UploadMode::kTaskSequential, false};
    optimum_ = solve_theorem1_dp(trace_, machine_, options_).total();
  }

  MultiTaskTrace trace_;
  MachineSpec machine_;
  EvalOptions options_;
  Cost optimum_ = 0;
};

TEST_P(GaParameterSweep, ValidAndNearOptimal) {
  const SweepCase param = GetParam();
  GaConfig config;
  config.population = param.population;
  config.generations = param.generations;
  config.crossover_rate = param.crossover;
  config.mutation_rate = param.mutation;
  config.seed = param.seed;
  const auto result =
      solve_genetic(SolveInstance(trace_, machine_, options_), config);

  EXPECT_NO_THROW(result.best.schedule.validate(2, 24));
  EXPECT_EQ(result.best.total(),
            evaluate_fully_sync_switch(trace_, machine_,
                                       result.best.schedule, options_)
                .total);
  EXPECT_GE(result.best.total(), optimum_) << "cannot beat the optimum";
  EXPECT_LE(result.best.total(), optimum_ * 12 / 10)
      << "more than 20% off the certified optimum";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GaParameterSweep,
    ::testing::Values(SweepCase{1, 16, 80, 0.9, -1.0},
                      SweepCase{2, 32, 80, 0.9, -1.0},
                      SweepCase{3, 64, 40, 0.9, -1.0},
                      SweepCase{4, 32, 80, 0.5, -1.0},
                      SweepCase{5, 32, 80, 1.0, 0.01},
                      SweepCase{6, 32, 80, 0.9, 0.10},
                      SweepCase{7, 48, 120, 0.7, 0.05},
                      SweepCase{8, 16, 200, 0.9, -1.0}));

class SaParameterSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SaParameterSweep, ValidAcrossCoolingSchedules) {
  workload::MultiPhasedConfig config;
  config.tasks = 3;
  config.task_config.steps = 20;
  config.task_config.universe = 6;
  const auto trace = workload::make_multi_phased(config, GetParam());
  const auto machine = MachineSpec::uniform_local(3, 6);

  for (const double cooling : {0.99, 0.999, 0.9999}) {
    SaConfig sa;
    sa.iterations = 3000;
    sa.cooling = cooling;
    sa.seed = GetParam();
    const auto solution = solve_annealing(SolveInstance(trace, machine), sa);
    EXPECT_NO_THROW(solution.schedule.validate(3, 20));
    EXPECT_EQ(
        solution.total(),
        evaluate_fully_sync_switch(trace, machine, solution.schedule, {})
            .total);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SaParameterSweep,
                         ::testing::Values(11, 12, 13, 14));

}  // namespace
}  // namespace hyperrec
