// Scaling study backing Theorem 1's message: the switch-model interval DPs
// are polynomial while the exhaustive/partial and implicitly-specified
// general problems blow up exponentially.
//
// Google-benchmark timings:
//   * BM_SingleTaskDp    — O(n²) in the trace length in the worst case; the
//                          exact early exit (core/interval_dp.hpp) stops each
//                          scan within about a phase here, so the phased
//                          traces below grow close to linearly,
//   * BM_AlignedDp       — O(m·n²) in the worst case, same early exit,
//   * BM_AlignedDpFamily — the aligned DP at the benchmark's gated shapes:
//                          4×4096×1024 jobs (random-walk, whose long scans
//                          the union counters answer, and random, whose
//                          short scans stay on merges) and 4×96×32 requests
//                          of every workload family,
//   * BM_CoordDescent    — polynomial local search on partial schedules,
//   * BM_Exhaustive      — 2^{m(n−1)} schedules (tiny n only),
//   * BM_ImplicitGeneral — 2^{|X|} hypercontexts per interval (tiny |X|).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/aligned_dp.hpp"
#include "core/coordinate_descent.hpp"
#include "core/exhaustive.hpp"
#include "core/implicit_general.hpp"
#include "core/interval_dp.hpp"
#include "workload/generators.hpp"

namespace {

using namespace hyperrec;

TaskTrace phased_trace(std::size_t steps, std::size_t universe,
                       std::uint64_t seed) {
  workload::PhasedConfig config;
  config.steps = steps;
  config.universe = universe;
  config.phases = std::max<std::size_t>(2, steps / 32);
  Xoshiro256 rng(seed);
  return workload::make_phased(config, rng);
}

void BM_SingleTaskDp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const TaskTrace trace = phased_trace(n, 48, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_single_task_switch(trace, 48).total);
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_SingleTaskDp)->RangeMultiplier(2)->Range(64, 2048)->Complexity();

void BM_AlignedDp(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  workload::MultiPhasedConfig config;
  config.tasks = m;
  config.task_config.steps = 256;
  config.task_config.universe = 16;
  // The instance is built once at the boundary; the timed loop measures
  // pure solving against the shared precomputation.
  const SolveInstance instance(workload::make_multi_phased(config, 11),
                               MachineSpec::uniform_local(m, 16));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_aligned_dp(instance).total());
  }
}
BENCHMARK(BM_AlignedDp)->DenseRange(1, 8, 1);

void BM_AlignedDpFamily(benchmark::State& state, const std::string& family,
                        std::size_t steps, std::size_t universe) {
  Xoshiro256 rng(1);
  const SolveInstance instance(
      workload::make_multi_family(family, 4, steps, universe, rng),
      MachineSpec::local_only(std::vector<std::size_t>(4, universe)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_aligned_dp(instance).total());
  }
}
BENCHMARK_CAPTURE(BM_AlignedDpFamily, random_walk_4096x1024, "random-walk",
                  4096, 1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AlignedDpFamily, random_4096x1024, "random", 4096, 1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AlignedDpFamily, phased_96x32, "phased", 96, 32);
BENCHMARK_CAPTURE(BM_AlignedDpFamily, random_96x32, "random", 96, 32);
BENCHMARK_CAPTURE(BM_AlignedDpFamily, random_walk_96x32, "random-walk", 96,
                  32);
BENCHMARK_CAPTURE(BM_AlignedDpFamily, bursty_96x32, "bursty", 96, 32);
BENCHMARK_CAPTURE(BM_AlignedDpFamily, periodic_96x32, "periodic", 96, 32);

void BM_CoordDescent(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  workload::MultiPhasedConfig config;
  config.tasks = 4;
  config.task_config.steps = n;
  config.task_config.universe = 12;
  const SolveInstance instance(workload::make_multi_phased(config, 5),
                               MachineSpec::uniform_local(4, 12));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_coordinate_descent(instance).total());
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_CoordDescent)->RangeMultiplier(2)->Range(32, 256)->Complexity();

void BM_Exhaustive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  workload::MultiPhasedConfig config;
  config.tasks = 2;
  config.task_config.steps = n;
  config.task_config.universe = 6;
  const SolveInstance instance(workload::make_multi_phased(config, 3),
                               MachineSpec::uniform_local(2, 6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_exhaustive(instance).total());
  }
  state.SetLabel("2^{2(n-1)} schedules");
}
BENCHMARK(BM_Exhaustive)->DenseRange(4, 10, 1);

// Cost of building the SolveInstance IR itself (validation + sparse-table
// unions and demand maxima) — the one-off price the whole portfolio shares.
void BM_InstanceBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  workload::MultiPhasedConfig config;
  config.tasks = 4;
  config.task_config.steps = n;
  config.task_config.universe = 48;
  const auto trace = workload::make_multi_phased(config, 17);
  const auto machine = MachineSpec::uniform_local(4, 48);
  for (auto _ : state) {
    const SolveInstance instance(trace, machine);
    benchmark::DoNotOptimize(&instance);
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_InstanceBuild)->RangeMultiplier(4)->Range(64, 1024)->Complexity();

void BM_ImplicitGeneral(benchmark::State& state) {
  const auto universe = static_cast<std::size_t>(state.range(0));
  workload::PhasedConfig config;
  config.steps = 12;
  config.universe = universe;
  Xoshiro256 rng(13);
  const TaskTrace trace = workload::make_phased(config, rng);
  std::vector<DynamicBitset> sequence;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    sequence.push_back(trace.at(i).local);
  }
  ImplicitGeneralModel model;
  model.universe = universe;
  model.cost = [](const DynamicBitset& h) {
    return static_cast<Cost>(h.count());
  };
  model.init = [](const DynamicBitset&) { return Cost{8}; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_implicit_general(model, sequence).total);
  }
  state.SetLabel("2^{|X|} hypercontexts");
}
BENCHMARK(BM_ImplicitGeneral)->DenseRange(6, 16, 2);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): under --smoke, run only the
// smallest instance of each benchmark family with a minimal measuring time,
// so ctest proves the bench still compiles and runs in well under a second.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string filter = "--benchmark_filter="
      "BM_SingleTaskDp/64$|BM_AlignedDp/1$|BM_CoordDescent/32$|"
      "BM_Exhaustive/4$|BM_ImplicitGeneral/6$|BM_InstanceBuild/64$";
  // Note: plain seconds value — the "0.01s" suffix form needs benchmark
  // >= 1.8, and the floor here is 1.7.
  std::string min_time = "--benchmark_min_time=0.01";
  if (smoke) {
    args.push_back(filter.data());
    args.push_back(min_time.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
