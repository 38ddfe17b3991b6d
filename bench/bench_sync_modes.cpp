// Model ablation A: the §3/§4 synchronisation regimes and upload
// disciplines on synthetic multi-task workloads.
//
// For each workload family the coordinate-descent schedule is evaluated
// under every (sync mode × upload discipline) combination, showing
//   * task-parallel uploads dominate task-sequential ones (max ≤ Σ),
//   * asynchronous (non-synchronised) execution overlaps reconfiguration
//     work and is cheapest,
//   * the SHyRA §6 setting (hyper parallel / reconfig sequential) sits in
//     between.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/coordinate_descent.hpp"
#include "model/cost_switch.hpp"
#include "support/table.hpp"
#include "workload/generators.hpp"

namespace {
using namespace hyperrec;
}

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  std::printf("=== Sync-mode / upload-discipline ablation (m=4 tasks) ===\n\n");

  struct Family {
    const char* name;
    std::uint64_t seed;
    std::size_t phases;
  };
  const Family families[] = {{"phased/4", 11, 4},
                             {"phased/8", 12, 8},
                             {"near-random", 13, 64}};

  for (const Family& family : families) {
    workload::MultiPhasedConfig config;
    config.tasks = 4;
    config.task_config.steps = bench::pick<std::size_t>(smoke, 128, 32);
    config.task_config.universe = 16;
    config.task_config.phases = family.phases;
    const auto trace = workload::make_multi_phased(config, family.seed);
    const auto machine = MachineSpec::uniform_local(4, 16);
    const Cost baseline =
        no_hyperreconfiguration_cost(machine, trace.steps());

    // One schedule, optimised for the paper's §6 discipline, evaluated
    // under all regimes (apples-to-apples on the schedule).
    const EvalOptions base_options{UploadMode::kTaskParallel,
                                   UploadMode::kTaskSequential, false};
    const auto schedule =
        solve_coordinate_descent(SolveInstance(trace, machine, base_options))
            .schedule;

    Table table(std::string("workload: ") + family.name +
                "  (baseline no-hyper = " + std::to_string(baseline) + ")");
    table.headers({"sync mode", "hyper upload", "reconfig upload", "total",
                   "% of baseline"});

    const struct {
      const char* name;
      SyncMode mode;
      UploadMode hyper;
      UploadMode reconfig;
    } rows[] = {
        {"fully sync", SyncMode::kFullySynchronized, UploadMode::kTaskParallel,
         UploadMode::kTaskParallel},
        {"fully sync (SHyRA §6)", SyncMode::kFullySynchronized,
         UploadMode::kTaskParallel, UploadMode::kTaskSequential},
        {"fully sync", SyncMode::kFullySynchronized,
         UploadMode::kTaskSequential, UploadMode::kTaskSequential},
        {"hypercontext sync", SyncMode::kHypercontextSynchronized,
         UploadMode::kTaskParallel, UploadMode::kTaskSequential},
        {"context sync", SyncMode::kContextSynchronized,
         UploadMode::kTaskSequential, UploadMode::kTaskSequential},
        {"non-sync (async §4.1)", SyncMode::kNonSynchronized,
         UploadMode::kTaskParallel, UploadMode::kTaskParallel},
    };
    for (const auto& row : rows) {
      const Cost total = evaluate_switch_total(
          row.mode, trace, machine, schedule,
          EvalOptions{row.hyper, row.reconfig, false});
      table.row(row.name,
                row.hyper == UploadMode::kTaskParallel ? "parallel" : "seq",
                row.reconfig == UploadMode::kTaskParallel ? "parallel" : "seq",
                total, percent_of(total, baseline));
    }
    table.print(std::cout);
    std::printf("\n");
  }
  return 0;
}
