// Reproduces Figure 2: the sequence of hypercontexts for the 4-bit counter
// and the time steps of the (partial) hyperreconfigurations, for the single
// task case (upper part of the figure) and the multiple task case (lower).
//
// The paper draws, per component and step, whether each unit is "in use",
// "unused", or "not available in context".  This bench prints the same
// information as compact per-iteration strips plus per-step CSV series
// (hypercontext sizes + hyperreconfiguration markers) suitable for plotting.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/genetic.hpp"
#include "core/interval_dp.hpp"
#include "model/cost_switch.hpp"
#include "shyra/counter_app.hpp"
#include "shyra/tracer.hpp"

namespace {

using namespace hyperrec;

EvalOptions paper_options() {
  return EvalOptions{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                     false};
}

const char* kTaskNames[4] = {"LUT1 ", "LUT2 ", "DeMUX", "MUX  "};

/// One character per step: '#' hyperreconfiguration here, '|' task uses a
/// non-empty requirement, '.' unused step, all within the hypercontext.
void print_strip(const char* name, const std::vector<char>& strip) {
  std::printf("  %s ", name);
  for (const char c : strip) std::putchar(c);
  std::putchar('\n');
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  const auto run = shyra::CounterApp(10).run();
  const std::size_t n = run.trace.size();
  const auto single = shyra::to_single_task_trace(run.trace);
  const auto multi = shyra::to_multi_task_trace(run.trace);

  std::printf("=== Figure 2: hypercontexts for the 4-bit counter ===\n\n");

  // --- single task (upper part of the figure) -----------------------------
  const auto single_opt = solve_single_task_switch(single.task(0), 48);
  std::printf("single task case: %zu hyperreconfigurations, cost %lld\n",
              single_opt.partition.interval_count(),
              static_cast<long long>(single_opt.total));
  {
    std::vector<char> strip(n, '.');
    for (std::size_t i = 0; i < n; ++i) {
      if (single.task(0).at(i).local.count() > 0) strip[i] = '|';
    }
    for (const std::size_t s : single_opt.partition.starts()) strip[s] = '#';
    print_strip("m=1  ", strip);
  }

  // --- multiple task case (lower part; GA as in the paper) ----------------
  GaConfig ga_config;
  ga_config.population = bench::pick<std::size_t>(smoke, 96, 24);
  ga_config.generations = bench::pick<std::size_t>(smoke, 400, 40);
  ga_config.seed = 2004;
  const SolveInstance instance(multi, shyra::multi_task_machine(),
                               paper_options());
  const auto descent = solve_genetic(instance, ga_config).best;
  std::printf("\nmultiple task case: %zu partial hyperreconfiguration steps, "
              "cost %lld\n",
              descent.schedule.partial_hyper_steps(),
              static_cast<long long>(descent.total()));
  for (std::size_t j = 0; j < 4; ++j) {
    std::vector<char> strip(n, '.');
    for (std::size_t i = 0; i < n; ++i) {
      if (multi.task(j).at(i).local.count() > 0) strip[i] = '|';
    }
    for (const std::size_t s : descent.schedule.tasks[j].starts()) {
      strip[s] = '#';
    }
    print_strip(kTaskNames[j], strip);
  }
  std::printf("  legend: '#' partial hyperreconfiguration, '|' unit in use, "
              "'.' unit unused\n");

  // --- per-step series (CSV) ----------------------------------------------
  const auto contexts =
      derive_local_hypercontexts(multi, descent.schedule);
  std::printf("\nper-step series (CSV): step, single_hctx_size, "
              "single_hyper, lut1,lut2,demux,mux hctx sizes, multi_hyper\n");
  std::vector<std::size_t> interval_index(4, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t single_k = single_opt.partition.interval_of(i);
    std::printf("%zu,%zu,%d", i, single_opt.hypercontexts[single_k].count(),
                static_cast<int>(single_opt.partition.is_boundary(i)));
    bool any = false;
    for (std::size_t j = 0; j < 4; ++j) {
      if (i > 0 && descent.schedule.tasks[j].is_boundary(i)) {
        ++interval_index[j];
      }
      any = any || descent.schedule.tasks[j].is_boundary(i);
      std::printf(",%zu", contexts[j][interval_index[j]].local.count());
    }
    std::printf(",%d\n", static_cast<int>(any || i == 0));
  }
  return 0;
}
