// Streaming-layer study: appending steps to the interval tables vs full
// rebuilds, and windowed warm-started re-solves vs one offline solve.
//
// The streaming engine's economics rest on one contract: appending a step
// to its MultiTaskTraceStats (model/trace_stats.hpp, append_step) must be
// far cheaper than building the tables from scratch over the grown trace —
// that is what makes per-step trigger checks and frequent window re-solves
// affordable.  This bench measures exactly that:
//
//   * phase 1 (GATED): total time to append `extra` steps to a
//     MultiTaskTraceStats built over a >= 256-step trace, against the total
//     time of from-scratch MultiTaskTraceStats builds over the same growing
//     prefixes.  The acceptance criterion requires the appending path to be
//     at least 5x faster; exit status is nonzero otherwise, so the --smoke
//     ctest registration doubles as a regression gate.  (The asymptotic gap
//     is O(log n * words) vs O(n log n * words) per step — the gate holds
//     with two orders of magnitude of headroom.)
//
//   * phase 2 (informative): per workload family, a full streaming replay
//     (window + step-count trigger, fast portfolio) against the offline
//     solve of the same final trace — re-solve count, cost ratio and wall
//     times, the knobs a serving deployment tunes.
#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "engine/portfolio.hpp"
#include "model/trace_stats.hpp"
#include "streaming/streaming_engine.hpp"
#include "support/table.hpp"
#include "workload/generators.hpp"

namespace {

using namespace hyperrec;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

MultiTaskTrace prefix_of(const MultiTaskTrace& trace, std::size_t steps) {
  MultiTaskTrace prefix;
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    TaskTrace task(trace.task(j).local_universe());
    for (std::size_t i = 0; i < steps; ++i) task.push_back(trace.task(j).at(i));
    prefix.add_task(std::move(task));
  }
  return prefix;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  bool ok = true;

  // --- phase 1: incremental append vs full rebuild (gated >= 5x) ----------
  const std::size_t tasks = 4;
  const std::size_t universe = 64;
  const std::size_t base = 256;  // the acceptance window floor
  const std::size_t extra = bench::pick<std::size_t>(smoke, 128, 64);

  Xoshiro256 rng(0x57AB1E);
  const MultiTaskTrace full_trace = workload::make_multi_family(
      "phased", tasks, base + extra, universe, rng);

  // Prefix copies are built outside the timed regions; both sides below
  // time only their table maintenance.
  std::vector<MultiTaskTrace> prefixes;
  prefixes.reserve(extra);
  for (std::size_t i = 0; i < extra; ++i) {
    prefixes.push_back(prefix_of(full_trace, base + i + 1));
  }
  std::vector<std::vector<ContextRequirement>> appended_steps;
  appended_steps.reserve(extra);
  for (std::size_t i = 0; i < extra; ++i) {
    appended_steps.push_back(full_trace.step(base + i));
  }

  MultiTaskTraceStats appended(prefix_of(full_trace, base));
  const Clock::time_point inc_start = Clock::now();
  for (const std::vector<ContextRequirement>& step : appended_steps) {
    appended.append_step(step);
  }
  const double inc_s = seconds_since(inc_start);

  const Clock::time_point reb_start = Clock::now();
  std::size_t sink = 0;  // defeat dead-code elimination
  for (const MultiTaskTrace& prefix : prefixes) {
    const MultiTaskTraceStats rebuilt(prefix);
    sink += rebuilt.task(0).local_union_count(0, prefix.steps());
  }
  const double reb_s = seconds_since(reb_start);

  // The tables the appends produced must match a rebuild bit-identically.
  if (!(appended == MultiTaskTraceStats(full_trace))) {
    std::fprintf(stderr, "FAIL: appended tables differ from a rebuild\n");
    ok = false;
  }

  const double speedup = inc_s > 0 ? reb_s / inc_s : 1e9;
  std::printf("=== Incremental trace-stats vs full rebuild (%zu tasks, "
              "universe %zu, window %zu -> %zu steps) ===\n\n",
              tasks, universe, base, base + extra);
  Table table;
  table.headers({"maintenance", "steps", "total s", "us/step"});
  table.row("incremental append", static_cast<std::uint64_t>(extra), inc_s,
            inc_s / static_cast<double>(extra) * 1e6);
  table.row("full rebuild", static_cast<std::uint64_t>(extra), reb_s,
            reb_s / static_cast<double>(extra) * 1e6);
  table.print(std::cout);
  std::printf("\nspeedup: %.1fx (gate: >= 5x at window >= 256)%s\n\n",
              speedup, sink == static_cast<std::size_t>(-1) ? "!" : "");
  if (speedup < 5.0) {
    std::fprintf(stderr,
                 "FAIL: incremental update only %.2fx faster than rebuild\n",
                 speedup);
    ok = false;
  }

  // --- phase 2: streaming replay vs offline solve (informative) -----------
  const std::size_t s_steps = bench::pick<std::size_t>(smoke, 192, 48);
  const std::size_t s_window = bench::pick<std::size_t>(smoke, 64, 16);
  const std::size_t s_every = bench::pick<std::size_t>(smoke, 16, 8);
  const std::size_t s_universe = bench::pick<std::size_t>(smoke, 32, 12);
  const std::size_t s_tasks = 2;

  std::printf("=== Streaming replay vs offline portfolio (%zu tasks x %zu "
              "steps, universe %zu, window %zu, trigger steps:%zu) ===\n\n",
              s_tasks, s_steps, s_universe, s_window, s_every);
  Table study;
  study.headers({"family", "resolves", "stream cost", "offline cost",
                 "ratio", "stream s", "offline s"});
  for (const std::string& family : workload::family_names()) {
    Xoshiro256 family_rng(0xBEEF ^ std::hash<std::string>{}(family));
    const MultiTaskTrace trace = workload::make_multi_family(
        family, s_tasks, s_steps, s_universe, family_rng);
    MachineSpec machine = MachineSpec::local_only(
        std::vector<std::size_t>(s_tasks, s_universe));

    streaming::StreamingConfig config;
    config.window = s_window;
    config.trigger.every_steps = s_every;
    config.portfolio.solvers = {"aligned-dp", "greedy-w8"};
    streaming::StreamingEngine engine(machine, EvalOptions{}, config);
    const Clock::time_point stream_start = Clock::now();
    for (std::size_t i = 0; i < trace.steps(); ++i) {
      engine.append_step(trace.step(i));
    }
    engine.flush();
    const double stream_s = seconds_since(stream_start);
    const Cost stream_cost = engine.current_solution().total();

    engine::PortfolioConfig offline;
    offline.solvers = {"aligned-dp", "greedy-w8"};
    offline.parallel = false;
    const Clock::time_point offline_start = Clock::now();
    const engine::PortfolioResult offline_result =
        engine::solve_portfolio(SolveInstance(trace, machine), offline);
    const double offline_s = seconds_since(offline_start);

    study.row(family, static_cast<std::uint64_t>(engine.resolve_count()),
              static_cast<std::int64_t>(stream_cost),
              static_cast<std::int64_t>(offline_result.best.total()),
              static_cast<double>(stream_cost) /
                  static_cast<double>(offline_result.best.total()),
              stream_s, offline_s);
  }
  study.print(std::cout);
  std::printf(
      "\nExpected shape: windowed re-solves track the offline cost within a "
      "small factor while each re-solve touches only `window` steps; the "
      "incremental tables make the per-step trigger checks O(1).\n");

  return ok ? 0 : 1;
}
