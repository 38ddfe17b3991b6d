// Multi-task scheduling scenario: four tasks of very different sizes share
// a partially hyperreconfigurable machine.  Compares the machine classes of
// §3 (partially reconfigurable = aligned hyperreconfigurations vs partially
// hyperreconfigurable = per-task) and the solver line-up under the §4.2
// fully synchronised cost model.
//
// Task heterogeneity is the point: partial hyperreconfigurations are
// uploaded task-parallel, so a step's hyperreconfiguration charge is
// max_{j∈A} v_j.  With equal v_j, joining an existing step is free and
// aligned schedules are already optimal; with a mix of small and large
// tasks (as on SHyRA, l = 8/8/8/24) the small tasks profit from extra cheap
// hyperreconfiguration steps that would be wasteful for the big one.
#include <cstdio>

#include "core/solver.hpp"
#include "model/cost_switch.hpp"
#include "workload/generators.hpp"

int main() {
  using namespace hyperrec;

  // Four tasks with 6/10/14/18 local switches, phased demand, 200 steps.
  const std::vector<std::size_t> locals{6, 10, 14, 18};
  MultiTaskTrace trace;
  for (std::size_t j = 0; j < locals.size(); ++j) {
    workload::PhasedConfig config;
    config.steps = 200;
    config.universe = locals[j];
    config.phases = 4 + j;  // tasks change phase at different times
    config.window_fraction = 0.4;
    Xoshiro256 rng(1234 + j);
    trace.add_task(workload::make_phased(config, rng));
  }
  const MachineSpec machine = MachineSpec::local_only(locals);

  // §6 disciplines: partial hyperreconfigurations upload task-parallel,
  // reconfigurations task-sequentially.
  const EvalOptions options{UploadMode::kTaskParallel,
                            UploadMode::kTaskSequential, false};

  const Cost baseline = no_hyperreconfiguration_cost(machine, trace.steps());
  std::printf("4 tasks (l = 6/10/14/18) x 200 steps, 48 switches total\n");
  std::printf("baseline (hyperreconfiguration disabled): %lld\n\n",
              static_cast<long long>(baseline));

  std::printf("%-16s %10s %10s %8s\n", "solver", "cost", "% of base",
              "#hyper");
  const SolveInstance instance(trace, machine, options);
  for (const auto& solver : standard_solvers()) {
    const MTSolution solution = solver.solve(instance);
    std::printf("%-16s %10lld %9.1f%% %8zu\n", solver.name.c_str(),
                static_cast<long long>(solution.total()),
                100.0 * static_cast<double>(solution.total()) /
                    static_cast<double>(baseline),
                solution.schedule.partial_hyper_steps());
  }

  std::printf("\nReading the table: 'aligned-dp' is exact for *partially "
              "reconfigurable* machines (all tasks hyperreconfigure "
              "together); the per-task solvers exploit *partial* "
              "hyperreconfiguration (§3) and, with heterogeneous task "
              "sizes, should cost less.\n");
  return 0;
}
