// Differential solver fuzzer: random small instances, every registered
// solver vs the exhaustive oracle.
//
//   fuzz_harness [--seed=S] [--iters=N] [--smoke] [--mux] [--hierarchical]
//                [--exact-class]
//
//     --seed=S   root seed (default 1); iteration i fuzzes stream S+i, so a
//                failure's reproducer is `--seed=<printed seed> --iters=1`
//     --iters=N  iterations (default 100)
//     --smoke    25 iterations — the ctest `fuzz` label registration
//     --mux      multiplexer differential mode: each iteration streams a
//                small random fleet through one StreamMultiplexer (shared
//                cache, interleaved appends, randomized window/triggers/
//                shards) and diffs every stream's published windows,
//                schedule and cost against its solo StreamingEngine replay
//     --hierarchical
//                hierarchical differential mode: each iteration solves a
//                random instance through solve_hierarchical with a tiny
//                segment (forcing the fan-out/stitch/boundary-DP/seam-repair
//                path) and checks the spliced schedule, re-evaluated cost
//                and the certificate bracket lower_bound <= optimum <= cost;
//                where the portfolio is exact (engine::portfolio_is_exact)
//                the solve must come back flat with cost == optimum ==
//                lower_bound; on half the iterations the pool is shrunk so
//                the boundary DP must split blocks, and the optimum comes
//                from solve_private_global (exhaustive blocks, every step a
//                candidate) instead; the summary counts flat and segmented
//                solves
//     --exact-class
//                exact fast-path differential mode: each iteration draws an
//                instance inside the aligned DP's exact class (random task
//                and step counts, one universe and one v for every task,
//                either reconfig upload mode; core/aligned_dp.hpp) and
//                checks that the default portfolio's answer — the aligned
//                DP alone — equals the minimum over every standard_solvers()
//                member run directly, and the exhaustive optimum whenever
//                m(n−1) ≤ 24
//
// Each iteration draws a random instance small enough for solve_exhaustive
// (random workload family, task count, step count, universes, machine costs,
// private-global demands, changeover/upload-mode options) and checks every
// standard_solvers() member against three oracles:
//
//   1. the returned schedule validates against the instance shape,
//   2. the reported cost equals an independent re-evaluation of the
//      schedule (solvers cannot mis-report what their schedule costs), and
//   3. the cost is bounded below by the exhaustive optimum (no solver may
//      "beat" the ground truth — that would mean an invalid schedule or a
//      broken evaluator).
//
// On any disagreement the harness prints the failing solver, the full
// instance (trace serialised, machine and options inline) and the exact
// reproducer seed, then exits 1.  tools/fuzz_solvers.py drives time-sliced
// campaigns (CI runs a 60-second slice).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/aligned_dp.hpp"
#include "core/exhaustive.hpp"
#include "core/hierarchical.hpp"
#include "core/private_global.hpp"
#include "core/solver.hpp"
#include "engine/portfolio.hpp"
#include "io/trace_io.hpp"
#include "model/cost_switch.hpp"
#include "model/instance.hpp"
#include "model/trace_stats.hpp"
#include "streaming/stream_multiplexer.hpp"
#include "support/cost_math.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace {

using namespace hyperrec;

struct FuzzInstance {
  MultiTaskTrace trace;
  MachineSpec machine;
  EvalOptions options;
  std::string family;
};

FuzzInstance draw_instance(Xoshiro256& rng) {
  FuzzInstance fuzz;
  const std::vector<std::string>& kinds = workload::family_names();
  fuzz.family = kinds[rng.uniform(kinds.size())];

  const std::size_t tasks = 1 + rng.uniform(2);     // 1..2
  const std::size_t steps = 2 + rng.uniform(7);     // 2..8 (periodic rounds up)
  const std::size_t universe = 1 + rng.uniform(6);  // 1..6
  const std::uint32_t demand_high =
      rng.flip(0.4) ? static_cast<std::uint32_t>(1 + rng.uniform(3)) : 0;

  for (std::size_t j = 0; j < tasks; ++j) {
    Xoshiro256 task_rng = rng.split(j + 1);
    TaskTrace task = workload::make_family(fuzz.family, steps, universe,
                                           task_rng);
    if (demand_high > 0) workload::add_private_demand(task, 0, demand_high, 2);
    fuzz.trace.add_task(std::move(task));
  }

  for (std::size_t j = 0; j < tasks; ++j) {
    TaskSpec spec;
    spec.local_switches = universe;
    spec.local_init = static_cast<Cost>(1 + rng.uniform(2 * universe));
    fuzz.machine.tasks.push_back(spec);
  }
  if (demand_high > 0) {
    // A pool covering the worst-case quota sum keeps every schedule
    // feasible — the fuzzer hunts cost disagreements, not quota rejections.
    fuzz.machine.private_global_units = tasks * demand_high;
    fuzz.machine.global_init = static_cast<Cost>(1 + rng.uniform(6));
  }

  fuzz.options.changeover = rng.flip(0.5);
  fuzz.options.hyper_upload =
      rng.flip(0.5) ? UploadMode::kTaskParallel : UploadMode::kTaskSequential;
  fuzz.options.reconfig_upload =
      rng.flip(0.5) ? UploadMode::kTaskParallel : UploadMode::kTaskSequential;
  return fuzz;
}

/// `mode` is the harness flag (with a trailing space) that selects the
/// failing iteration's mode, so the printed command reproduces it.
void dump_reproducer(const FuzzInstance& fuzz, std::uint64_t seed,
                     const std::string& solver, const std::string& what,
                     const char* mode = "") {
  std::fprintf(stderr, "\n=== FUZZ FAILURE ===\n");
  std::fprintf(stderr, "reproduce: fuzz_harness %s--seed=%llu --iters=1\n",
               mode, static_cast<unsigned long long>(seed));
  std::fprintf(stderr, "solver: %s\nfamily: %s\nproblem: %s\n", solver.c_str(),
               fuzz.family.c_str(), what.c_str());
  std::fprintf(
      stderr,
      "machine: g=%zu w=%lld locals/init=", fuzz.machine.private_global_units,
      static_cast<long long>(fuzz.machine.global_init));
  for (const TaskSpec& task : fuzz.machine.tasks) {
    std::fprintf(stderr, " %zu/%lld", task.local_switches,
                 static_cast<long long>(task.local_init));
  }
  std::fprintf(stderr,
               "\noptions: changeover=%d hyper_upload=%d reconfig_upload=%d\n",
               fuzz.options.changeover ? 1 : 0,
               static_cast<int>(fuzz.options.hyper_upload),
               static_cast<int>(fuzz.options.reconfig_upload));
  std::fprintf(stderr, "trace:\n%s", io::trace_to_string(fuzz.trace).c_str());
}

/// Checks one solver on one instance; returns false (after dumping the
/// reproducer) on the first disagreement.  `skipped` counts solvers that
/// legitimately declined the instance (the DP members reject changeover
/// costs by documented precondition).
bool check_solver(const NamedSolver& solver, const SolveInstance& instance,
                  const FuzzInstance& fuzz, Cost optimum, std::uint64_t seed,
                  std::size_t& skipped) {
  MTSolution solution;
  try {
    solution = solver.solve(instance);
  } catch (const PreconditionError& error) {
    if (fuzz.options.changeover &&
        std::string(error.what()).find("changeover") != std::string::npos) {
      ++skipped;  // documented "does not support changeover" refusal
      return true;
    }
    dump_reproducer(fuzz, seed, solver.name,
                    std::string("solver threw: ") + error.what());
    return false;
  } catch (const std::exception& error) {
    dump_reproducer(fuzz, seed, solver.name,
                    std::string("solver threw: ") + error.what());
    return false;
  }
  try {
    solution.schedule.validate(instance.task_count(), instance.steps());
  } catch (const std::exception& error) {
    dump_reproducer(fuzz, seed, solver.name,
                    std::string("schedule does not validate: ") +
                        error.what());
    return false;
  }
  try {
    const CostBreakdown replay =
        evaluate_fully_sync_switch(instance, solution.schedule);
    if (replay.total != solution.total()) {
      dump_reproducer(fuzz, seed, solver.name,
                      "reported cost " + std::to_string(solution.total()) +
                          " != re-evaluated cost " +
                          std::to_string(replay.total));
      return false;
    }
  } catch (const std::exception& error) {
    dump_reproducer(fuzz, seed, solver.name,
                    std::string("schedule does not evaluate: ") +
                        error.what());
    return false;
  }
  if (solution.total() < optimum) {
    dump_reproducer(fuzz, seed, solver.name,
                    "cost " + std::to_string(solution.total()) +
                        " beats the exhaustive optimum " +
                        std::to_string(optimum));
    return false;
  }
  return true;
}

/// One --mux iteration: a random fleet rides ONE StreamMultiplexer (shared
/// cache, interleaved appends, randomized window/trigger/shard geometry) and
/// every stream's published windows, schedule and cost must be bit-identical
/// to a cache-less solo StreamingEngine replay of the same trace.  The
/// oracle here is the solo engine, not solve_exhaustive — the mux fuzz hunts
/// sequencing/coalescing bugs, not cost-model bugs.
bool check_mux_iteration(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + 0xF1EE7);

  streaming::StreamingConfig stream_config;
  stream_config.window = 1 + rng.uniform(6);            // 1..6
  stream_config.trigger.every_steps = rng.uniform(5);   // 0..4
  if (rng.flip(0.3)) {
    stream_config.trigger.spike_factor = 1.5;
    stream_config.trigger.spike_min_demand = 2;
  }
  stream_config.portfolio.solvers = {"aligned-dp", "greedy-w8"};

  const std::size_t streams = 2 + rng.uniform(4);  // 2..5
  std::vector<FuzzInstance> fleet;
  std::size_t max_steps = 0;
  for (std::size_t j = 0; j < streams; ++j) {
    Xoshiro256 stream_rng = rng.split(j + 17);
    FuzzInstance fuzz = draw_instance(stream_rng);
    // The portfolio's DP members reject changeover by precondition; the mux
    // fuzz targets op sequencing, so keep every instance solvable.
    fuzz.options.changeover = false;
    max_steps = std::max(max_steps, fuzz.trace.steps());
    fleet.push_back(std::move(fuzz));
  }

  streaming::MultiplexerConfig mux_config;
  mux_config.shards = 1 + rng.uniform(4);  // 1..4
  mux_config.stream = stream_config;
  streaming::StreamMultiplexer mux(mux_config);
  for (std::size_t j = 0; j < streams; ++j) {
    mux.open_stream(fleet[j].machine, fleet[j].options);
  }
  for (std::size_t s = 0; s < max_steps; ++s) {
    for (std::size_t j = 0; j < streams; ++j) {
      if (s < fleet[j].trace.steps()) {
        mux.append_step(j, fleet[j].trace.step(s));
      }
    }
  }
  mux.flush_all();
  mux.drain();

  for (std::size_t j = 0; j < streams; ++j) {
    const std::string tag = "stream-multiplexer[" + std::to_string(j) + "]";
    streaming::StreamingEngine solo(fleet[j].machine, fleet[j].options,
                                    stream_config);
    for (std::size_t s = 0; s < fleet[j].trace.steps(); ++s) {
      solo.append_step(fleet[j].trace.step(s));
    }
    solo.flush();

    const streaming::StreamingEngine& muxed = mux.engine(j);
    std::string what;
    if (mux.first_failure() && mux.first_failure()->stream == j) {
      what = "stream poisoned at step " +
             std::to_string(mux.first_failure()->step) + ": " +
             mux.first_failure()->what;
    } else if (muxed.steps() != solo.steps()) {
      what = "applied " + std::to_string(muxed.steps()) + " steps, solo saw " +
             std::to_string(solo.steps());
    } else if (muxed.resolve_count() != solo.resolve_count()) {
      what = "resolve count " + std::to_string(muxed.resolve_count()) +
             " != solo " + std::to_string(solo.resolve_count());
    } else {
      for (std::size_t k = 0; k < solo.windows().size() && what.empty(); ++k) {
        const streaming::WindowReport& a = muxed.windows()[k];
        const streaming::WindowReport& b = solo.windows()[k];
        if (a.trigger != b.trigger || a.window_lo != b.window_lo ||
            a.window_hi != b.window_hi || a.ok != b.ok ||
            a.window_cost != b.window_cost ||
            a.published_cost != b.published_cost) {
          what = "window " + std::to_string(k) +
                 " diverged from the solo replay (trigger/range/cost)";
        }
      }
      if (what.empty()) {
        const MultiTaskSchedule& fs = muxed.schedule();
        const MultiTaskSchedule& ss = solo.schedule();
        for (std::size_t t = 0; t < ss.tasks.size() && what.empty(); ++t) {
          if (fs.tasks[t].starts() != ss.tasks[t].starts()) {
            what = "task " + std::to_string(t) + " schedule starts diverged";
          }
        }
        if (what.empty() && fs.global_boundaries != ss.global_boundaries) {
          what = "global boundaries diverged";
        }
        if (what.empty() &&
            muxed.current_solution().total() != solo.current_solution().total()) {
          what = "final cost " +
                 std::to_string(muxed.current_solution().total()) +
                 " != solo " + std::to_string(solo.current_solution().total());
        }
      }
    }
    if (!what.empty()) {
      dump_reproducer(fleet[j], seed, tag, what, "--mux ");
      return false;
    }
  }
  return true;
}

/// How the --hierarchical iterations were solved, for the summary line.
struct HierarchicalTally {
  std::size_t flat = 0;       ///< one window (short trace or exact)
  std::size_t exact = 0;      ///< of those, exact (portfolio_is_exact)
  std::size_t segmented = 0;  ///< more than one window
};

/// One --hierarchical iteration: a random instance (changeover forced off —
/// the hierarchical tier declines it by documented precondition) is solved
/// through solve_hierarchical with a tiny segment length, so even the 2..8
/// step fuzz traces outside the exact class genuinely exercise the segment
/// fan-out, stitch, boundary DP and seam repair.  Oracles: the spliced schedule validates, the
/// reported cost equals an independent re-evaluation, the cost is bounded
/// below by the optimum, and the attached certificate brackets it
/// (lower_bound <= optimum <= hierarchical cost).  Where the portfolio is
/// exact the solve must be flat, optimal and certified by itself
/// (cost == optimum == lower_bound).
///
/// The drawn pool covers the worst-case quota sum, so one block always
/// fits.  On half the iterations every step of every task gets its own
/// private demand instead, and the pool is drawn from at least the largest
/// per-segment quota sum (every segment still fits) up to below the
/// whole-trace quota sum, so the boundary DP has blocks to split.  A single
/// block is then infeasible for solve_exhaustive, and the optimum is
/// solve_private_global with exhaustive blocks and every step a candidate —
/// exact, since global blocks cost independently without changeover.
bool check_hierarchical_iteration(std::uint64_t seed,
                                  HierarchicalTally& tally) {
  Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + 0x41E12);
  FuzzInstance fuzz = draw_instance(rng);
  fuzz.options.changeover = false;

  HierarchicalConfig config;
  config.segment = 2 + rng.uniform(2);  // 2..3: always multi-segment
  config.seam_repair = rng.flip(0.7);
  const bool split_pool = rng.flip(0.5);
  if (split_pool) {
    // The drawn demand curve (if any) peaks in every task at once, which no
    // block boundary can relieve; mostly idle per-step demands rarely
    // coincide.
    const std::uint64_t high = 1 + rng.uniform(3);
    fuzz.machine.global_init = static_cast<Cost>(1 + rng.uniform(6));
    MultiTaskTrace shifted;
    for (std::size_t j = 0; j < fuzz.trace.task_count(); ++j) {
      TaskTrace task(fuzz.trace.task(j).local_universe());
      for (std::size_t i = 0; i < fuzz.trace.steps(); ++i) {
        ContextRequirement req = fuzz.trace.task(j).at(i);
        req.private_demand = static_cast<std::uint32_t>(
            rng.flip(0.6) ? 0 : 1 + rng.uniform(high));
        task.push_back(std::move(req));
      }
      shifted.add_task(std::move(task));
    }
    fuzz.trace = std::move(shifted);
    const MultiTaskTraceStats stats(fuzz.trace);
    const std::size_t n = fuzz.trace.steps();
    std::uint64_t segment_max = 1;  // solve_private_global needs a pool
    for (std::size_t lo = 0; lo < n; lo += config.segment) {
      segment_max = std::max(segment_max,
                             stats.block_quota_sum(
                                 lo, std::min(n, lo + config.segment)));
    }
    // Below the whole-trace sum whenever it exceeds every segment's, so
    // at least one block boundary is mandatory.
    const std::uint64_t whole = stats.block_quota_sum(0, n);
    fuzz.machine.private_global_units =
        whole > segment_max ? segment_max + rng.uniform(whole - segment_max)
                            : segment_max;
  }
  const std::string tag =
      "hierarchical[segment=" + std::to_string(config.segment) +
      (config.seam_repair ? ",repair" : "") +
      (split_pool ? ",split-pool" : "") + "]";

  const SolveInstance instance(fuzz.trace, fuzz.machine, fuzz.options);
  Cost optimum = 0;
  if (split_pool) {
    PrivateGlobalConfig exact;
    exact.inner = [](const SolveInstance& block, const CancelToken&) {
      return solve_exhaustive(block);
    };
    try {
      const MTSolution blocks = solve_private_global(instance, exact).solution;
      const Cost replay =
          evaluate_fully_sync_switch(instance, blocks.schedule).total;
      if (replay != blocks.total()) {
        dump_reproducer(fuzz, seed, "private-global",
                        "reported cost " + std::to_string(blocks.total()) +
                            " != re-evaluated cost " +
                            std::to_string(replay),
                        "--hierarchical ");
        return false;
      }
      optimum = blocks.total();
    } catch (const std::exception& error) {
      dump_reproducer(fuzz, seed, "private-global",
                      std::string("solver threw: ") + error.what(),
                      "--hierarchical ");
      return false;
    }
  } else {
    optimum = solve_exhaustive(instance).total();
  }
  HierarchicalResult result;
  try {
    result = solve_hierarchical(instance, config);
  } catch (const std::exception& error) {
    dump_reproducer(fuzz, seed, tag,
                    std::string("solver threw: ") + error.what(),
                    "--hierarchical ");
    return false;
  }
  const MTSolution& solution = result.solution;
  try {
    solution.schedule.validate(instance.task_count(), instance.steps());
    const CostBreakdown replay =
        evaluate_fully_sync_switch(instance, solution.schedule);
    if (replay.total != solution.total()) {
      dump_reproducer(fuzz, seed, tag,
                      "reported cost " + std::to_string(solution.total()) +
                          " != re-evaluated cost " +
                          std::to_string(replay.total),
                      "--hierarchical ");
      return false;
    }
  } catch (const std::exception& error) {
    dump_reproducer(fuzz, seed, tag,
                    std::string("spliced schedule invalid: ") + error.what(),
                    "--hierarchical ");
    return false;
  }
  if (solution.total() < optimum) {
    dump_reproducer(fuzz, seed, tag,
                    "cost " + std::to_string(solution.total()) +
                        " beats the optimum " + std::to_string(optimum),
                    "--hierarchical ");
    return false;
  }
  if (!solution.lower_bound.has_value()) {
    dump_reproducer(fuzz, seed, tag, "missing lower_bound certificate",
                    "--hierarchical ");
    return false;
  }
  if (*solution.lower_bound > optimum) {
    dump_reproducer(fuzz, seed, tag,
                    "lower bound " + std::to_string(*solution.lower_bound) +
                        " exceeds the optimum " + std::to_string(optimum),
                    "--hierarchical ");
    return false;
  }
  if (engine::portfolio_is_exact(instance, config.portfolio)) {
    if (result.segments != 1 || solution.total() != optimum ||
        *solution.lower_bound != solution.total()) {
      dump_reproducer(fuzz, seed, tag,
                      "exact instance: " + std::to_string(result.segments) +
                          " segments, cost " +
                          std::to_string(solution.total()) + ", lower bound " +
                          std::to_string(*solution.lower_bound) +
                          ", optimum " + std::to_string(optimum),
                      "--hierarchical ");
      return false;
    }
    ++tally.exact;
  }
  if (result.segments == 1) {
    ++tally.flat;
  } else {
    ++tally.segmented;
  }
  return true;
}

/// A random instance inside the aligned DP's exact class
/// (aligned_dp_is_exact): one universe and one v for every task, no global
/// resources, task-parallel hyper upload, no changeover, either reconfig
/// upload mode.  Nine draws in ten keep m(n−1) ≤ 16, where exhaustive
/// search takes milliseconds; the rest range up to 41 steps, so the
/// seconds-long searches near the m(n−1) ≤ 24 cap stay rare.
FuzzInstance draw_exact_class_instance(Xoshiro256& rng) {
  FuzzInstance fuzz;
  const std::vector<std::string>& kinds = workload::family_names();
  fuzz.family = kinds[rng.uniform(kinds.size())];
  const std::size_t tasks = 1 + rng.uniform(4);  // 1..4
  const std::size_t steps =
      2 + rng.uniform(rng.flip(0.9) ? 16 / tasks : 40);
  const std::size_t universe = 1 + rng.uniform(12);  // 1..12
  for (std::size_t j = 0; j < tasks; ++j) {
    Xoshiro256 task_rng = rng.split(j + 1);
    fuzz.trace.add_task(
        workload::make_family(fuzz.family, steps, universe, task_rng));
  }
  const Cost v = static_cast<Cost>(rng.uniform(3 * universe + 1));
  fuzz.machine.tasks.assign(tasks, TaskSpec{universe, v});
  fuzz.options.reconfig_upload =
      rng.flip(0.5) ? UploadMode::kTaskParallel : UploadMode::kTaskSequential;
  return fuzz;
}

/// One --exact-class iteration: the default portfolio takes the exact fast
/// path, so its answer must equal the best of every standard_solvers()
/// member run directly, and the exhaustive optimum when it is in reach.
bool check_exact_class_iteration(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + 0xE8AC7);
  const FuzzInstance fuzz = draw_exact_class_instance(rng);
  const SolveInstance instance(fuzz.trace, fuzz.machine, fuzz.options);
  const auto fail = [&](const std::string& solver, const std::string& what) {
    dump_reproducer(fuzz, seed, solver, what, "--exact-class ");
    return false;
  };
  if (!aligned_dp_is_exact(instance)) {
    return fail("aligned-dp", "drawn instance is outside the exact class");
  }
  engine::PortfolioConfig config;
  config.parallel = false;
  config.certify = true;
  engine::PortfolioResult portfolio;
  try {
    portfolio = engine::solve_portfolio(instance, config);
  } catch (const std::exception& error) {
    return fail("portfolio", std::string("portfolio threw: ") + error.what());
  }
  const Cost total = portfolio.best.total();
  if (portfolio.winner != "aligned-dp" ||
      portfolio.best.lower_bound != total) {
    return fail("portfolio", "fast path not taken or not self-certified");
  }
  Cost best_member = kCostInfinity;
  std::string best_name;
  for (const NamedSolver& solver : standard_solvers()) {
    try {
      const Cost member = solver.solve(instance).total();
      if (member < best_member) {
        best_member = member;
        best_name = solver.name;
      }
    } catch (const std::exception& error) {
      return fail(solver.name, std::string("solver threw: ") + error.what());
    }
  }
  if (best_member != total) {
    return fail(best_name, "best member cost " + std::to_string(best_member) +
                               " != portfolio cost " + std::to_string(total));
  }
  const std::size_t m = instance.task_count();
  if (m * (instance.steps() - 1) <= 24) {
    const Cost optimum = solve_exhaustive(instance).total();
    if (optimum != total) {
      return fail("aligned-dp", "portfolio cost " + std::to_string(total) +
                                    " != exhaustive optimum " +
                                    std::to_string(optimum));
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::size_t iters = 100;
  bool mux = false;
  bool hierarchical = false;
  bool exact_class = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--seed=", 7) == 0) {
        seed = std::stoull(arg + 7);
      } else if (std::strncmp(arg, "--iters=", 8) == 0) {
        iters = std::stoul(arg + 8);
      } else if (std::strcmp(arg, "--smoke") == 0) {
        iters = 25;
      } else if (std::strcmp(arg, "--mux") == 0) {
        mux = true;
      } else if (std::strcmp(arg, "--hierarchical") == 0) {
        hierarchical = true;
      } else if (std::strcmp(arg, "--exact-class") == 0) {
        exact_class = true;
      } else {
        std::fprintf(stderr,
                     "usage: %s [--seed=S] [--iters=N] [--smoke] [--mux] "
                     "[--hierarchical] [--exact-class]\n",
                     argv[0]);
        return 1;
      }
    }

    if (exact_class) {
      for (std::size_t iter = 0; iter < iters; ++iter) {
        if (!check_exact_class_iteration(seed + iter)) return 1;
      }
      std::printf("fuzz_harness: %zu exact-class portfolios equal to the best "
                  "member and the exhaustive optimum (seeds %llu..%llu)\n",
                  iters, static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(seed + iters - 1));
      return 0;
    }

    if (hierarchical) {
      HierarchicalTally tally;
      for (std::size_t iter = 0; iter < iters; ++iter) {
        if (!check_hierarchical_iteration(seed + iter, tally)) return 1;
      }
      std::printf("fuzz_harness: %zu hierarchical solves consistent with the "
                  "exact optimum and their certificates "
                  "(%zu flat, %zu exact, %zu segmented; seeds %llu..%llu)\n",
                  iters, tally.flat, tally.exact, tally.segmented,
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(seed + iters - 1));
      return 0;
    }

    if (mux) {
      for (std::size_t iter = 0; iter < iters; ++iter) {
        if (!check_mux_iteration(seed + iter)) return 1;
      }
      std::printf("fuzz_harness: %zu multiplexed fleets bit-identical to "
                  "their solo replays (seeds %llu..%llu)\n",
                  iters, static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(seed + iters - 1));
      return 0;
    }

    const std::vector<NamedSolver> solvers = standard_solvers();
    std::size_t checks = 0;
    std::size_t skipped = 0;
    for (std::size_t iter = 0; iter < iters; ++iter) {
      const std::uint64_t stream = seed + iter;
      Xoshiro256 rng(stream * 0x9E3779B97F4A7C15ull + 0xF022);
      const FuzzInstance fuzz = draw_instance(rng);
      const SolveInstance instance(fuzz.trace, fuzz.machine, fuzz.options);
      const Cost optimum = solve_exhaustive(instance).total();
      for (const NamedSolver& solver : solvers) {
        if (!check_solver(solver, instance, fuzz, optimum, stream, skipped)) {
          return 1;
        }
        ++checks;
      }
    }
    std::printf("fuzz_harness: %zu iterations x %zu solvers = %zu checks "
                "(%zu changeover-declines), all consistent with the "
                "exhaustive oracle (seeds %llu..%llu)\n",
                iters, solvers.size(), checks, skipped,
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(seed + iters - 1));
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
