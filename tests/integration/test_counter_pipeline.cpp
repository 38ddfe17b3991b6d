// End-to-end reproduction pipeline: simulate the counter on SHyRA, trace the
// requirements, optimise under the MT-Switch model, and check the paper's
// qualitative results (§6).
#include <gtest/gtest.h>

#include "core/coordinate_descent.hpp"
#include "core/genetic.hpp"
#include "core/greedy.hpp"
#include "core/interval_dp.hpp"
#include "model/cost_switch.hpp"
#include "shyra/counter_app.hpp"
#include "shyra/tracer.hpp"

namespace hyperrec {
namespace {

using shyra::CounterApp;

struct Pipeline {
  MultiTaskTrace single;
  MultiTaskTrace multi;
  MachineSpec m1 = shyra::single_task_machine();
  MachineSpec m4 = shyra::multi_task_machine();
  Cost baseline = 0;

  Pipeline() {
    const auto run = CounterApp(10).run();
    single = shyra::to_single_task_trace(run.trace);
    multi = shyra::to_multi_task_trace(run.trace);
    baseline = no_hyperreconfiguration_cost(m1, run.trace.size());
  }
};

// §6 evaluation setting: fully synchronised, partial hyperreconfigurations
// task-parallel, reconfigurations task-sequential.
EvalOptions paper_options() {
  return EvalOptions{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                     false};
}

TEST(CounterPipeline, BaselineMatchesPaperExactly) {
  const Pipeline pipeline;
  EXPECT_EQ(pipeline.baseline, 5280);
}

TEST(CounterPipeline, SingleTaskOptimumBeatsBaseline) {
  const Pipeline pipeline;
  const auto solution =
      solve_single_task_switch(pipeline.single.task(0), 48);
  EXPECT_LT(solution.total, pipeline.baseline);
  EXPECT_GT(solution.partition.interval_count(), 1u)
      << "hyperreconfiguration must be exercised";
  // Paper: 71.2%.  Our re-derived schedule lands in the same regime; assert
  // a generous envelope to stay robust against schedule tweaks.
  const double ratio = static_cast<double>(solution.total) /
                       static_cast<double>(pipeline.baseline);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 0.95);
}

TEST(CounterPipeline, MultiTaskBeatsSingleTask) {
  const Pipeline pipeline;
  const auto single = solve_single_task_switch(pipeline.single.task(0), 48);
  const SolveInstance instance(pipeline.multi, pipeline.m4, paper_options());
  const auto multi = solve_coordinate_descent(instance);
  EXPECT_LT(multi.total(), single.total)
      << "partial hyperreconfiguration must improve on the single-task case "
         "(paper: 2813 < 3761)";
}

TEST(CounterPipeline, GaAndCoordinateDescentAgreeClosely) {
  const Pipeline pipeline;
  const SolveInstance instance(pipeline.multi, pipeline.m4, paper_options());
  const auto descent = solve_coordinate_descent(instance);
  GaConfig config;
  config.generations = 250;
  config.population = 96;
  config.seed = 1;
  const auto ga = solve_genetic(instance, config);
  EXPECT_LE(std::abs(ga.best.total() - descent.total()),
            descent.total() / 20)
      << "two independent optimisers should land within 5%";
}

TEST(CounterPipeline, SingleTaskDpAgreesWithEvaluator) {
  const Pipeline pipeline;
  const auto solution = solve_single_task_switch(pipeline.single.task(0), 48);
  MultiTaskSchedule schedule;
  schedule.tasks.push_back(solution.partition);
  const auto breakdown = evaluate_fully_sync_switch(
      pipeline.single, pipeline.m1, schedule, paper_options());
  EXPECT_EQ(breakdown.total, solution.total)
      << "interval DP and §4.2 evaluator must agree for m = 1";
}

TEST(CounterPipeline, MultiTaskUsesCheaperPartialSteps) {
  const Pipeline pipeline;
  const SolveInstance instance(pipeline.multi, pipeline.m4, paper_options());
  const auto multi = solve_coordinate_descent(instance);
  // In the multi-task case a partial hyperreconfiguration costs at most
  // max_j v_j = 24 < 48, so the hyper charges average at most 24 per
  // step that hyperreconfigures.
  EXPECT_LE(multi.breakdown.hyper,
            24 * static_cast<Cost>(multi.breakdown.partial_hyper_steps));
}

TEST(CounterPipeline, GreedyIsWeakerButValid) {
  const Pipeline pipeline;
  const SolveInstance instance(pipeline.multi, pipeline.m4, paper_options());
  const auto greedy = solve_greedy(instance);
  const auto descent = solve_coordinate_descent(instance);
  EXPECT_GE(greedy.total(), descent.total());
  EXPECT_LT(greedy.total(), pipeline.baseline);
}

TEST(CounterPipeline, DifferentBoundsScaleTraceAndCosts) {
  for (const std::uint8_t bound : {std::uint8_t{3}, std::uint8_t{7},
                                   std::uint8_t{12}}) {
    const auto run = CounterApp(bound).run();
    const auto single = shyra::to_single_task_trace(run.trace);
    const Cost baseline =
        no_hyperreconfiguration_cost(shyra::single_task_machine(),
                                     run.trace.size());
    const auto solution = solve_single_task_switch(single.task(0), 48);
    EXPECT_LT(solution.total, baseline) << "bound " << int(bound);
  }
}

}  // namespace
}  // namespace hyperrec
