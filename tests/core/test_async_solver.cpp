#include "core/async_solver.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "support/cost_math.hpp"
#include "testutil/oracles.hpp"
#include "workload/generators.hpp"

namespace hyperrec {
namespace {

using testutil::brute_force_async;

MultiTaskTrace unequal_trace() {
  // Task 0: 5 steps; task 1: 3 steps — asynchronous tasks need not align.
  MultiTaskTrace trace;
  TaskTrace t0(4);
  t0.push_back_local(DynamicBitset::from_string("1100"));
  t0.push_back_local(DynamicBitset::from_string("1100"));
  t0.push_back_local(DynamicBitset::from_string("0011"));
  t0.push_back_local(DynamicBitset::from_string("0011"));
  t0.push_back_local(DynamicBitset::from_string("0011"));
  TaskTrace t1(4);
  t1.push_back_local(DynamicBitset::from_string("1111"));
  t1.push_back_local(DynamicBitset::from_string("1000"));
  t1.push_back_local(DynamicBitset::from_string("1000"));
  trace.add_task(std::move(t0));
  trace.add_task(std::move(t1));
  return trace;
}

TEST(AsyncSolver, HandlesUnequalTraceLengths) {
  const auto trace = unequal_trace();
  const auto machine = MachineSpec::uniform_local(2, 4);
  const auto solution = solve_async(trace, machine);
  EXPECT_EQ(solution.schedule.tasks[0].n(), 5u);
  EXPECT_EQ(solution.schedule.tasks[1].n(), 3u);
  EXPECT_GT(solution.total(), 0);
}

TEST(AsyncSolver, MatchesBruteForce) {
  const auto trace = unequal_trace();
  const auto machine = MachineSpec::uniform_local(2, 4);
  const auto solution = solve_async(trace, machine);
  EXPECT_EQ(solution.total(), brute_force_async(trace, machine, {}));
}

TEST(AsyncSolver, NearMaximumHyperCostSaturates) {
  // v = max − 1000 over a 256-switch universe: the optimum is one interval
  // per task, and its cost saturates at the sentinel instead of wrapping.
  workload::MultiPhasedConfig config;
  config.tasks = 2;
  config.task_config.steps = 24;
  config.task_config.universe = 256;
  const auto trace = workload::make_multi_phased(config, 3);
  MachineSpec machine = MachineSpec::uniform_local(2, 256);
  for (TaskSpec& task : machine.tasks) {
    task.local_init = std::numeric_limits<Cost>::max() - 1000;
  }
  const auto solution = solve_async(trace, machine);
  EXPECT_EQ(solution.total(), kCostInfinity);
  for (const Partition& partition : solution.schedule.tasks) {
    EXPECT_EQ(partition.interval_count(), 1u);
  }
}

TEST(AsyncSolver, MatchesBruteForceOnRandomTraces) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    workload::MultiPhasedConfig config;
    config.tasks = 2;
    config.task_config.steps = 8;
    config.task_config.universe = 5;
    const auto trace = workload::make_multi_phased(config, seed);
    const auto machine = MachineSpec::uniform_local(2, 5);
    const auto solution = solve_async(trace, machine);
    EXPECT_EQ(solution.total(), brute_force_async(trace, machine, {}))
        << "seed " << seed;
  }
}

TEST(AsyncSolver, MatchesBruteForceWithChangeover) {
  const auto trace = unequal_trace();
  const auto machine = MachineSpec::uniform_local(2, 4);
  EvalOptions options;
  options.changeover = true;
  const auto solution = solve_async(trace, machine, options);
  EXPECT_EQ(solution.total(), brute_force_async(trace, machine, options));
}

TEST(AsyncSolver, SlowestTaskDeterminesTotal) {
  const auto trace = unequal_trace();
  const auto machine = MachineSpec::uniform_local(2, 4);
  const auto solution = solve_async(trace, machine);
  const Cost slowest = *std::max_element(solution.breakdown.per_task.begin(),
                                         solution.breakdown.per_task.end());
  EXPECT_EQ(solution.total(), slowest + solution.breakdown.global_hyper);
}

TEST(AsyncSolver, PublicResourcesRejected) {
  const auto trace = unequal_trace();
  auto machine = MachineSpec::uniform_local(2, 4);
  machine.public_context_size = 3;
  EXPECT_THROW(solve_async(trace, machine), PreconditionError);
}

TEST(AsyncSolver, GlobalInitChargedWithPrivatePool) {
  MultiTaskTrace trace;
  TaskTrace t0(2);
  t0.push_back({DynamicBitset::from_string("10"), 2});
  trace.add_task(std::move(t0));
  MachineSpec machine = MachineSpec::uniform_local(1, 2);
  machine.private_global_units = 4;
  machine.global_init = 9;
  const auto solution = solve_async(trace, machine);
  EXPECT_EQ(solution.breakdown.global_hyper, 9);
  // v + (|{s0}| + priv 2)·1 = 2 + 3 = 5, plus w = 9.
  EXPECT_EQ(solution.total(), 14);
}

}  // namespace
}  // namespace hyperrec
