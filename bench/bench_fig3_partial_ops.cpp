// Reproduces Figure 3: for every step at which at least one task performs a
// partial hyperreconfiguration, which tasks hyperreconfigure (black) and
// which execute a no-hyperreconfiguration operation (white).
//
// The paper's observation to reproduce: because l1 = l2 = l3 (= 8) and
// partial hyperreconfigurations are task parallel (step cost max_j v_j),
// optimal schedules group the three cheap tasks — either all four tasks
// hyperreconfigure together or (subsets of) T1..T3 do, and adding a cheap
// task to a step that already pays for an equal-or-more-expensive one is
// free.
#include <cstdio>

#include "bench_common.hpp"
#include "core/genetic.hpp"
#include "model/cost_switch.hpp"
#include "shyra/counter_app.hpp"
#include "shyra/tracer.hpp"

namespace {
using namespace hyperrec;
const char* kTaskNames[4] = {"LUT1 ", "LUT2 ", "DeMUX", "MUX  "};
}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  const auto run = shyra::CounterApp(10).run();
  const auto multi = shyra::to_multi_task_trace(run.trace);
  const auto machine = shyra::multi_task_machine();
  const EvalOptions options{UploadMode::kTaskParallel,
                            UploadMode::kTaskSequential, false};

  // The paper computed the multi-task schedule with a genetic algorithm;
  // use the same method so the figure shows a comparable (near-optimal,
  // slightly noisy) pattern.
  GaConfig ga_config;
  ga_config.population = bench::pick<std::size_t>(smoke, 96, 24);
  ga_config.generations = bench::pick<std::size_t>(smoke, 400, 40);
  ga_config.seed = 2004;
  const auto solution =
      solve_genetic(SolveInstance(multi, machine, options), ga_config).best;

  // Collect the steps with at least one partial hyperreconfiguration.
  std::vector<std::size_t> hyper_steps;
  for (std::size_t i = 0; i < multi.steps(); ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (solution.schedule.tasks[j].is_boundary(i)) {
        hyper_steps.push_back(i);
        break;
      }
    }
  }

  std::printf("=== Figure 3: partial hyperreconfiguration operations ===\n");
  std::printf("%zu partial hyperreconfiguration steps (paper: 50)\n\n",
              hyper_steps.size());

  for (std::size_t j = 0; j < 4; ++j) {
    std::printf("  %s ", kTaskNames[j]);
    for (const std::size_t step : hyper_steps) {
      std::putchar(solution.schedule.tasks[j].is_boundary(step) ? '#' : '-');
    }
    std::putchar('\n');
  }
  std::printf("  legend: '#' partial hyperreconfiguration, "
              "'-' no-hyperreconfiguration operation\n\n");

  // Quantify the paper's grouping claim.
  std::size_t all_four = 0;
  std::size_t only_cheap = 0;  // subset of {T1,T2,T3}, T4 idle
  std::size_t with_t4 = 0;
  for (const std::size_t step : hyper_steps) {
    const bool t4 = solution.schedule.tasks[3].is_boundary(step);
    bool cheap = false;
    bool all = t4;
    for (std::size_t j = 0; j < 3; ++j) {
      if (solution.schedule.tasks[j].is_boundary(step)) {
        cheap = true;
      } else {
        all = false;
      }
    }
    if (all) ++all_four;
    if (t4) ++with_t4;
    if (cheap && !t4) ++only_cheap;
  }
  std::printf("grouping: %zu steps hyperreconfigure all four tasks, "
              "%zu steps include MUX (cost 24), %zu steps touch only "
              "T1..T3 (cost 8)\n",
              all_four, with_t4, only_cheap);

  // A partial hyperreconfiguration costs at most max v_j per step.
  const bool bounded =
      solution.breakdown.hyper <=
      24 * static_cast<Cost>(solution.breakdown.partial_hyper_steps);
  std::printf("per-step hyper cost <= max_j v_j = 24: %s\n",
              bounded ? "yes" : "NO");
  return 0;
}
