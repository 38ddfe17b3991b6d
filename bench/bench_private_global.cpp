// Private-global resources study (§3/§4): tasks share a pool of g
// interchangeable units (the paper's I/O-unit example) whose assignment is
// fixed per global block; re-assignment requires a global
// hyperreconfiguration of cost w that stalls every task.
//
// Workload: two tasks whose private demand alternates between I/O-heavy and
// compute-heavy phases in opposite phase — a tight pool forces global
// hyperreconfigurations at the demand swaps; a large pool needs none.  The
// sweep varies the pool size g and the global cost w.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/private_global.hpp"
#include "support/table.hpp"
#include "workload/generators.hpp"

namespace {
using namespace hyperrec;
}

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  const std::size_t repetitions = bench::pick<std::size_t>(smoke, 8, 3);
  std::printf("=== Private-global resources: pool size & global cost sweep "
              "===\n\n");

  // Build the alternating-demand two-task workload (n = repetitions · 8).
  auto build_trace = [repetitions](std::uint32_t low, std::uint32_t high) {
    MultiTaskTrace trace;
    for (std::size_t j = 0; j < 2; ++j) {
      workload::PeriodicConfig config;
      config.repetitions = repetitions;
      config.period = 8;
      config.universe = 8;
      Xoshiro256 rng(50 + j);
      TaskTrace task = workload::make_periodic(config, rng);
      workload::add_private_demand(task, low, high, 4);
      if (j == 1) {
        // Shift task 1's demand phases to oppose task 0's.
        TaskTrace shifted(task.local_universe());
        const std::size_t n = task.size();
        for (std::size_t i = 0; i < n; ++i) {
          ContextRequirement req = task.at(i);
          req.private_demand = task.at((i + n / 4) % n).private_demand;
          shifted.push_back(std::move(req));
        }
        task = std::move(shifted);
      }
      trace.add_task(std::move(task));
    }
    return trace;
  };

  const auto trace = build_trace(1, 6);

  Table table;
  table.headers({"pool g", "global cost w", "total", "global hyperreconfigs",
                 "feasible"});
  for (const std::size_t g : {7, 8, 10, 12}) {
    for (const Cost w : {2, 20, 100}) {
      MachineSpec machine = MachineSpec::uniform_local(2, 8);
      machine.private_global_units = g;
      machine.global_init = w;
      try {
        const auto result = solve_private_global(SolveInstance(trace, machine));
        table.row(g, w, result.solution.total(),
                  result.solution.schedule.global_boundaries.size(), "yes");
      } catch (const PreconditionError&) {
        table.row(g, w, "-", "-", "no");
      }
    }
  }
  table.print(std::cout);

  std::printf("\nExpected shape: g = 7 (< peak joint demand) needs "
              "mid-trace global hyperreconfigurations or is infeasible; "
              "g >= 12 (>= sum of peaks) runs in one block; rising w pushes "
              "the solver toward fewer blocks.\n");
  return 0;
}
