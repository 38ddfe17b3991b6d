#include "core/solver.hpp"

#include <gtest/gtest.h>

#include "workload/generators.hpp"

namespace hyperrec {
namespace {

TEST(SolverRegistry, ContainsTheStandardLineUp) {
  const auto solvers = standard_solvers();
  ASSERT_EQ(solvers.size(), 5u);
  EXPECT_EQ(solvers[0].name, "aligned-dp");
  EXPECT_EQ(solvers[3].name, "genetic");
}

TEST(SolverRegistry, AllSolversProduceValidConsistentSolutions) {
  workload::MultiPhasedConfig config;
  config.tasks = 3;
  config.task_config.steps = 24;
  config.task_config.universe = 8;
  const auto trace = workload::make_multi_phased(config, 77);
  const auto machine = MachineSpec::uniform_local(3, 8);
  EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                      false};

  const SolveInstance instance(trace, machine, options);
  for (const auto& solver : standard_solvers()) {
    const MTSolution solution = solver.solve(instance);
    EXPECT_NO_THROW(solution.schedule.validate(3, 24)) << solver.name;
    // Solvers that queried the tables price their answer through them; the
    // breakdown must equal a one-pass re-evaluation field by field.
    const CostBreakdown fresh =
        evaluate_fully_sync_switch(trace, machine, solution.schedule, options);
    EXPECT_EQ(solution.total(), fresh.total) << solver.name;
    EXPECT_EQ(solution.breakdown.hyper, fresh.hyper) << solver.name;
    EXPECT_EQ(solution.breakdown.reconfig, fresh.reconfig) << solver.name;
    EXPECT_EQ(solution.breakdown.global_hyper, fresh.global_hyper)
        << solver.name;
    EXPECT_EQ(solution.breakdown.partial_hyper_steps,
              fresh.partial_hyper_steps)
        << solver.name;
    EXPECT_GT(solution.total(), 0) << solver.name;
  }
}

TEST(MakeSolution, ReEvaluatesSchedule) {
  const auto trace = MultiTaskTrace::from_local(
      {3}, {{DynamicBitset::from_string("111"),
             DynamicBitset::from_string("100")}});
  const auto machine = MachineSpec::local_only({3});
  const SolveInstance instance(trace, machine);
  for (const auto& solution :
       {make_solution(instance, MultiTaskSchedule::all_single(1, 2)),
        make_solution_from_tables(instance,
                                  MultiTaskSchedule::all_single(1, 2))}) {
    EXPECT_EQ(solution.total(), 3 + 3 * 2);
    EXPECT_EQ(solution.breakdown.hyper, 3);
    EXPECT_EQ(solution.breakdown.reconfig, 6);
  }
}

}  // namespace
}  // namespace hyperrec
