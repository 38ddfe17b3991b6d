// Model ablation C: quality of the paper's genetic algorithm against the
// other solvers, plus GA convergence behaviour.
//
//   1. On exactly solvable instances (exhaustive ground truth), report each
//      solver's optimality gap.
//   2. On the SHyRA counter trace (the paper's instance), report all solver
//      costs and the GA's best-cost-per-generation curve.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/exhaustive.hpp"
#include "core/genetic.hpp"
#include "core/solver.hpp"
#include "shyra/counter_app.hpp"
#include "shyra/tracer.hpp"
#include "support/table.hpp"
#include "workload/generators.hpp"

namespace {
using namespace hyperrec;

EvalOptions paper_options() {
  return EvalOptions{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                     false};
}
}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  const std::size_t steps = bench::pick<std::size_t>(smoke, 9, 7);
  // --- part 1: optimality gaps on tiny instances --------------------------
  std::printf("=== GA ablation, part 1: optimality gaps "
              "(m=2, n=%zu, exhaustive ground truth) ===\n\n",
              steps);
  {
    Table table;
    table.headers({"solver", "mean gap %", "max gap %", "optimal count"});
    const std::size_t instances = bench::pick<std::size_t>(smoke, 10, 2);

    std::vector<double> mean_gap(standard_solvers().size(), 0.0);
    std::vector<double> max_gap(standard_solvers().size(), 0.0);
    std::vector<std::size_t> optimal(standard_solvers().size(), 0);

    for (std::uint64_t seed = 1; seed <= instances; ++seed) {
      workload::MultiPhasedConfig config;
      config.tasks = 2;
      config.task_config.steps = steps;
      config.task_config.universe = 6;
      config.task_config.phases = 2;
      const auto trace = workload::make_multi_phased(config, seed);
      const auto machine = MachineSpec::uniform_local(2, 6);
      const SolveInstance instance(trace, machine, paper_options());
      const Cost best = solve_exhaustive(instance).total();

      const auto solvers = standard_solvers();
      for (std::size_t s = 0; s < solvers.size(); ++s) {
        const Cost cost = solvers[s].solve(instance).total();
        const double gap = 100.0 *
                           static_cast<double>(cost - best) /
                           static_cast<double>(best);
        mean_gap[s] += gap / static_cast<double>(instances);
        max_gap[s] = std::max(max_gap[s], gap);
        if (cost == best) ++optimal[s];
      }
    }
    const auto solvers = standard_solvers();
    for (std::size_t s = 0; s < solvers.size(); ++s) {
      table.row(solvers[s].name, mean_gap[s], max_gap[s],
                std::to_string(optimal[s]) + "/" + std::to_string(instances));
    }
    table.print(std::cout);
  }

  // --- part 2: the paper's instance ---------------------------------------
  // Smoke shrinks the counter bound: the registry solvers run with their
  // full default configurations, so the trace length is the lever.
  const auto run =
      shyra::CounterApp(bench::pick<std::uint8_t>(smoke, 10, 3)).run();
  std::printf("\n=== GA ablation, part 2: SHyRA counter trace "
              "(m=4, n=%zu) ===\n\n",
              run.trace.size());
  const auto multi = shyra::to_multi_task_trace(run.trace);
  const auto machine = shyra::multi_task_machine();
  const Cost baseline = no_hyperreconfiguration_cost(machine, multi.steps());
  const SolveInstance instance(multi, machine, paper_options());

  Table table;
  table.headers({"solver", "cost", "% of baseline", "partial hyper steps"});
  for (const auto& solver : standard_solvers()) {
    const auto solution = solver.solve(instance);
    table.row(solver.name, solution.total(),
              percent_of(solution.total(), baseline),
              solution.schedule.partial_hyper_steps());
  }
  table.print(std::cout);

  // GA convergence curve (sampled every 20 generations).
  GaConfig config;
  config.population = bench::pick<std::size_t>(smoke, 96, 24);
  config.generations = bench::pick<std::size_t>(smoke, 400, 40);
  config.seed = 2004;
  const auto ga = solve_genetic(instance, config);
  std::printf("\nGA convergence (generation, best cost):\n");
  for (std::size_t g = 0; g < ga.history.size(); g += 20) {
    std::printf("  %4zu  %lld\n", g,
                static_cast<long long>(ga.history[g]));
  }
  std::printf("  final %lld after %zu evaluations\n",
              static_cast<long long>(ga.best.total()), ga.evaluations);
  return 0;
}
