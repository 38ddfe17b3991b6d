// The paper's experiment end to end: map a 4-bit bounded counter onto the
// SHyRA architecture, simulate it cycle by cycle, trace the context
// requirements, and optimise the (hyper)reconfiguration schedule in both the
// single-task and the multi-task decomposition (paper §6).
#include <cstdio>

#include "core/coordinate_descent.hpp"
#include "core/interval_dp.hpp"
#include "model/cost_switch.hpp"
#include "shyra/counter_app.hpp"
#include "shyra/machine.hpp"
#include "shyra/tracer.hpp"

int main() {
  using namespace hyperrec;
  using namespace hyperrec::shyra;

  // --- 1. simulate ---------------------------------------------------------
  const std::uint8_t bound = 10;  // binary 1010, as in the paper
  CounterApp app(bound);
  const auto run = app.run();
  std::printf("SHyRA 4-bit counter, bound %u:\n", bound);
  std::printf("  %zu loop iterations, %zu reconfiguration steps\n",
              run.iterations, run.trace.size());
  std::printf("  final count %u, done flag %d\n", run.final_count,
              static_cast<int>(run.done));

  // Peek into the datapath: re-run the first iteration step by step.
  std::printf("\nfirst iteration, register file after each cycle "
              "(count r0-r3 | bound r4-r7 | scratch r8 | done r9):\n");
  ShyraMachine machine;
  machine.write_value(0, 4, 0);
  machine.write_value(4, 4, bound);
  const auto iteration = CounterApp::iteration_program();
  for (std::size_t cycle = 0; cycle < iteration.size(); ++cycle) {
    machine.step(iteration[cycle]);
    std::printf("  cycle %2zu: ", cycle + 1);
    for (std::size_t r = 0; r < kRegisters; ++r) {
      std::printf("%d", static_cast<int>(machine.reg(r)));
      if (r == 3 || r == 7 || r == 8) std::printf(" ");
    }
    std::printf("   requirement: %2zu of 48 bits\n",
                context_requirement(iteration[cycle]).count());
  }

  // --- 2. trace & optimise -------------------------------------------------
  const auto single = to_single_task_trace(run.trace);
  const auto multi = to_multi_task_trace(run.trace);
  const Cost baseline =
      no_hyperreconfiguration_cost(single_task_machine(), run.trace.size());

  const auto single_opt = solve_single_task_switch(single.task(0), 48);

  const EvalOptions options{UploadMode::kTaskParallel,
                            UploadMode::kTaskSequential, false};
  const auto multi_opt = solve_coordinate_descent(
      SolveInstance(multi, multi_task_machine(), options));

  std::printf("\nMT-Switch cost model results (cf. paper §6):\n");
  std::printf("  hyperreconfiguration disabled: %5lld (100.0%%)\n",
              static_cast<long long>(baseline));
  std::printf("  single task, optimal DP:       %5lld (%5.1f%%), "
              "%zu hyperreconfigurations\n",
              static_cast<long long>(single_opt.total),
              100.0 * static_cast<double>(single_opt.total) /
                  static_cast<double>(baseline),
              single_opt.partition.interval_count());
  std::printf("  multi task, partial hyper:     %5lld (%5.1f%%), "
              "%zu partial hyperreconfiguration steps\n",
              static_cast<long long>(multi_opt.total()),
              100.0 * static_cast<double>(multi_opt.total()) /
                  static_cast<double>(baseline),
              multi_opt.schedule.partial_hyper_steps());
  return 0;
}
