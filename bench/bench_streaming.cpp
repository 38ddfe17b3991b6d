// Streaming-layer study: what a window re-solve costs as the stream grows,
// and windowed warm-started re-solves vs one offline solve.
//
// A stream re-solve prices its splice from the previous splice's seam,
// splices the window in place and keeps no interval tables, so its cost is
// O(window + steps since the last re-solve), not O(stream length).  That
// is what keeps a long-lived stream's re-solves as cheap as a fresh one's:
//
//   * phase 1 (GATED): per workload family, one stream of 4 tasks ×
//     universe 32 (window 64, trigger steps:16, the stream_fleet line-up)
//     is grown to 512 steps and another to 8192; then both time a re-solve
//     together with its 16 appends, in interleaved blocks, best block
//     each.  The exit status is nonzero when the 8192-step stream's
//     re-solve costs more than 2x the 512-step one's on any family, so the
//     --smoke ctest registration doubles as a regression gate (a walk over
//     the whole history reads 5-10x here).
//
//   * phase 2 (informative): per workload family, a full streaming replay
//     (window + step-count trigger, fast portfolio) against the offline
//     solve of the same final trace — re-solve count, cost ratio and wall
//     times, the knobs a serving deployment tunes.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/portfolio.hpp"
#include "streaming/streaming_engine.hpp"
#include "support/table.hpp"
#include "workload/generators.hpp"

namespace {

using namespace hyperrec;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One stream of phase 1: its trace, engine and next step to append.
struct GrowingStream {
  MultiTaskTrace trace;
  streaming::StreamingEngine engine;
  std::size_t next = 0;

  /// Appends steps until `resolves` more re-solves ran; returns the µs per
  /// re-solve, appends included.
  double time_resolves(std::size_t resolves) {
    const std::size_t target = engine.resolve_count() + resolves;
    const Clock::time_point start = Clock::now();
    while (engine.resolve_count() < target) {
      engine.append_step(trace.step(next++));
    }
    return seconds_since(start) * 1e6 / static_cast<double>(resolves);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  bool ok = true;

  // --- phase 1: re-solve cost against stream length (gated <= 2x) ---------
  const std::size_t tasks = 4;
  const std::size_t universe = 32;
  const std::size_t every = 16;
  const std::size_t short_len = 512;
  const std::size_t long_len = 8192;
  const std::size_t blocks = bench::pick<std::size_t>(smoke, 7, 3);
  const std::size_t per_block = bench::pick<std::size_t>(smoke, 32, 16);
  const std::size_t extra = blocks * per_block * every + every;
  const MachineSpec fleet_machine =
      MachineSpec::local_only(std::vector<std::size_t>(tasks, universe));
  streaming::StreamingConfig fleet_config;
  fleet_config.window = 64;
  fleet_config.trigger.every_steps = every;
  fleet_config.portfolio.solvers = {"aligned-dp", "coord-descent"};

  std::printf("=== Re-solve cost against stream length (%zu tasks, universe "
              "%zu, window %zu, trigger steps:%zu; best of %zu blocks of %zu "
              "re-solves) ===\n\n",
              tasks, universe, fleet_config.window, every, blocks, per_block);
  Table scaling;
  scaling.headers({"family", "us/re-solve @512", "us/re-solve @8192",
                   "ratio"});
  const std::vector<std::string> families = {"random", "random-walk",
                                             "phased"};
  for (const std::string& family : families) {
    std::vector<GrowingStream> streams;
    streams.reserve(2);
    for (const std::size_t length : {short_len, long_len}) {
      Xoshiro256 rng(0x57AB1E ^ length);
      streams.push_back(GrowingStream{
          workload::make_multi_family(family, tasks, length + extra, universe,
                                      rng),
          streaming::StreamingEngine(fleet_machine, EvalOptions{},
                                     fleet_config),
          0});
      GrowingStream& stream = streams.back();
      while (stream.next < length) {
        stream.engine.append_step(stream.trace.step(stream.next++));
      }
    }
    double best[2] = {std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::infinity()};
    for (std::size_t block = 0; block < blocks; ++block) {
      for (std::size_t k = 0; k < 2; ++k) {
        best[k] = std::min(best[k], streams[k].time_resolves(per_block));
      }
    }
    const double ratio = best[1] / best[0];
    scaling.row(family, best[0], best[1], ratio);
    for (const GrowingStream& stream : streams) {
      for (const streaming::WindowReport& window : stream.engine.windows()) {
        if (!window.ok) {
          std::fprintf(stderr, "FAIL: %s re-solve %zu failed: %s\n",
                       family.c_str(), window.index, window.error.c_str());
          ok = false;
          break;
        }
      }
    }
    if (ratio > 2.0) {
      std::fprintf(stderr,
                   "FAIL: %s re-solve at %zu steps costs %.2fx the one at "
                   "%zu steps\n",
                   family.c_str(), long_len, ratio, short_len);
      ok = false;
    }
  }
  scaling.print(std::cout);
  std::printf("\nA re-solve walks its window and the steps since the last "
              "one, so the ratio stays near 1 (gate: <= 2x).\n\n");

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
      "small factor while each re-solve touches only `window` steps and the "
      "steps since the last one.\n");

  return ok ? 0 : 1;
}
