// Dominance relations between solvers that must hold on every instance:
// exact ≤ heuristics; richer machine classes ≤ restricted classes.
#include <gtest/gtest.h>

#include "core/aligned_dp.hpp"
#include "core/coordinate_descent.hpp"
#include "core/exhaustive.hpp"
#include "core/genetic.hpp"
#include "core/greedy.hpp"
#include "core/interval_dp.hpp"
#include "workload/generators.hpp"

namespace hyperrec {
namespace {

struct OrderingCase {
  std::uint64_t seed;
  std::size_t tasks;
  std::size_t steps;
  std::size_t universe;
};

class SolverOrdering : public ::testing::TestWithParam<OrderingCase> {
 protected:
  void SetUp() override {
    const auto param = GetParam();
    workload::MultiPhasedConfig config;
    config.tasks = param.tasks;
    config.task_config.steps = param.steps;
    config.task_config.universe = param.universe;
    config.task_config.phases = 3;
    trace_ = workload::make_multi_phased(config, param.seed);
    machine_ = MachineSpec::uniform_local(param.tasks, param.universe);
    options_ = EvalOptions{UploadMode::kTaskParallel,
                           UploadMode::kTaskSequential, false};
  }

  MultiTaskTrace trace_;
  MachineSpec machine_;
  EvalOptions options_;
};

TEST_P(SolverOrdering, PartialHyperreconfigurationDominatesAligned) {
  // The partially hyperreconfigurable machine class strictly generalises the
  // partially reconfigurable one (§3), so the best per-task schedule is at
  // most the best aligned schedule.
  const SolveInstance instance(trace_, machine_, options_);
  const auto aligned = solve_aligned_dp(instance);
  const auto descent = solve_coordinate_descent(instance);
  EXPECT_LE(descent.total(), aligned.total());
}

TEST_P(SolverOrdering, HeuristicsNeverBeatExhaustiveOnTinyPrefix) {
  // Restrict to a 6-step prefix where exhaustive search is feasible.
  const std::size_t prefix = 6;
  MultiTaskTrace small;
  for (std::size_t j = 0; j < trace_.task_count(); ++j) {
    TaskTrace task(trace_.task(j).local_universe());
    for (std::size_t i = 0; i < prefix; ++i) {
      task.push_back(trace_.task(j).at(i));
    }
    small.add_task(std::move(task));
  }
  if (trace_.task_count() * (prefix - 1) > 24) {
    GTEST_SKIP() << "instance too large for exhaustive search";
  }
  const SolveInstance instance(small, machine_, options_);
  const auto exact = solve_exhaustive(instance);
  const auto descent = solve_coordinate_descent(instance);
  const auto greedy = solve_greedy(instance);
  GaConfig ga_config;
  ga_config.population = 24;
  ga_config.generations = 40;
  ga_config.seed = GetParam().seed;
  const auto ga = solve_genetic(instance, ga_config);

  EXPECT_LE(exact.total(), descent.total());
  EXPECT_LE(exact.total(), greedy.total());
  EXPECT_LE(exact.total(), ga.best.total());
}

TEST_P(SolverOrdering, AllSchedulesBeatOrMatchNoHyperBaselineCeiling) {
  // Any schedule of the hyperreconfigurable machine costs at most
  // baseline + the hyper charges it chose; the optimised ones must beat the
  // baseline outright on phased workloads.
  const Cost baseline =
      no_hyperreconfiguration_cost(machine_, trace_.steps());
  const auto descent =
      solve_coordinate_descent(SolveInstance(trace_, machine_, options_));
  EXPECT_LT(descent.total(), baseline);
}

TEST_P(SolverOrdering, SingleTaskViewIsUpperBoundForMultiTaskView) {
  // Merging all tasks into one (the paper's m = 1 comparison) removes the
  // ability to hyperreconfigure components independently; with the paper's
  // §6 disciplines the multi-task optimum is at most the single-task one.
  // Build the merged trace by concatenating the local universes.
  const std::size_t total_universe = machine_.total_local_switches();
  TaskTrace merged(total_universe);
  for (std::size_t i = 0; i < trace_.steps(); ++i) {
    DynamicBitset combined(total_universe);
    std::size_t offset = 0;
    for (std::size_t j = 0; j < trace_.task_count(); ++j) {
      trace_.task(j).at(i).local.for_each_set(
          [&combined, offset](std::size_t pos) { combined.set(offset + pos); });
      offset += trace_.task(j).local_universe();
    }
    merged.push_back_local(std::move(combined));
  }
  const auto single = solve_single_task_switch(
      merged, static_cast<Cost>(total_universe));
  const auto descent =
      solve_coordinate_descent(SolveInstance(trace_, machine_, options_));
  EXPECT_LE(descent.total(), single.total);
}

INSTANTIATE_TEST_SUITE_P(Grid, SolverOrdering,
                         ::testing::Values(OrderingCase{1, 2, 18, 6},
                                           OrderingCase{2, 3, 18, 8},
                                           OrderingCase{3, 4, 16, 6},
                                           OrderingCase{4, 2, 24, 10},
                                           OrderingCase{5, 3, 20, 5},
                                           OrderingCase{6, 4, 14, 4}));

}  // namespace
}  // namespace hyperrec
