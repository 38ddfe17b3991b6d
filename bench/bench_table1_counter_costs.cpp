// Reproduces the headline numbers of §6 ("Table 1" of the reproduction):
//
//   paper:  no hyperreconfiguration 5280; single-task optimum 3761 (71.2%,
//           30 hyperreconfigurations); multi-task GA 2813 (53.3%, 50 partial
//           hyperreconfiguration steps).
//
// Pipeline: run the 4-bit counter (bound 1010) on the SHyRA simulator, trace
// the n = 110 context requirements, and optimise under the fully
// synchronised MT-Switch model with task-parallel partial
// hyperreconfigurations and task-sequential reconfigurations (§6 setting).
// Absolute values depend on the counter mapping (the authors' schedule is
// unpublished); the orderings and regimes are the reproduction target.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/coordinate_descent.hpp"
#include "core/genetic.hpp"
#include "core/interval_dp.hpp"
#include "model/cost_switch.hpp"
#include "shyra/counter_app.hpp"
#include "shyra/tracer.hpp"
#include "support/table.hpp"

namespace {

using namespace hyperrec;

EvalOptions paper_options() {
  return EvalOptions{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                     false};
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  const auto run = shyra::CounterApp(10).run();
  const auto single = shyra::to_single_task_trace(run.trace);
  const auto multi = shyra::to_multi_task_trace(run.trace);
  const auto machine1 = shyra::single_task_machine();
  const auto machine4 = shyra::multi_task_machine();

  const Cost baseline =
      no_hyperreconfiguration_cost(machine1, run.trace.size());

  const auto single_opt = solve_single_task_switch(single.task(0), 48);

  GaConfig ga_config;
  ga_config.population = bench::pick<std::size_t>(smoke, 96, 24);
  ga_config.generations = bench::pick<std::size_t>(smoke, 400, 40);
  ga_config.seed = 2004;
  const SolveInstance instance(multi, machine4, paper_options());
  const auto ga = solve_genetic(instance, ga_config);
  const auto descent = solve_coordinate_descent(instance);
  const MTSolution& multi_best =
      ga.best.total() <= descent.total() ? ga.best : descent;

  std::printf("=== Table 1: 4-bit counter on SHyRA, MT-Switch cost model ===\n");
  std::printf("trace: n=%zu reconfiguration steps, %zu iterations, "
              "final count %u, done=%d\n\n",
              run.trace.size(), run.iterations, run.final_count,
              static_cast<int>(run.done));

  Table table;
  table.headers({"configuration", "paper cost", "paper %", "paper #hyper",
                 "ours cost", "ours %", "ours #hyper"});
  table.row("no hyperreconfiguration", 5280, "100.0%", 0,
            baseline, percent_of(baseline, baseline), 0);
  table.row("single task (m=1, optimal DP)", 3761, "71.2%", 30,
            single_opt.total, percent_of(single_opt.total, baseline),
            single_opt.partition.interval_count());
  table.row("multi task (m=4, GA)", 2813, "53.3%", 50, ga.best.total(),
            percent_of(ga.best.total(), baseline),
            ga.best.schedule.partial_hyper_steps());
  table.row("multi task (m=4, coord-descent)", "-", "-", "-", descent.total(),
            percent_of(descent.total(), baseline),
            descent.schedule.partial_hyper_steps());
  table.print(std::cout);

  std::printf("\nshape checks:\n");
  std::printf("  baseline == 110*48 == 5280:         %s\n",
              baseline == 5280 ? "yes" : "NO");
  std::printf("  single-task optimum < baseline:     %s\n",
              single_opt.total < baseline ? "yes" : "NO");
  std::printf("  multi-task best < single-task:      %s (%lld < %lld)\n",
              multi_best.total() < single_opt.total ? "yes" : "NO",
              static_cast<long long>(multi_best.total()),
              static_cast<long long>(single_opt.total));
  std::printf("  multi-task hyper steps cost <= 24:  %s\n",
              multi_best.breakdown.hyper <=
                      24 * static_cast<Cost>(
                               multi_best.breakdown.partial_hyper_steps)
                  ? "yes"
                  : "NO");
  return 0;
}
