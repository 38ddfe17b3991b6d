// Batch solving driver: generate or load traces, race solver portfolios
// across a thread pool, emit machine-readable JSON.
//
//   hyperrec_cli [--batch=N] [--workload=KIND] [--tasks=M] [--steps=N]
//                [--universe=L] [--seed=S] [--portfolio=a,b,c]
//                [--deadline-ms=D] [--jobs=P] [--trace=FILE ...]
//                [--cache-capacity=C] [--cache-ttl-ms=T] [--warm-start]
//                [--stream] [--window=W] [--trigger=SPEC]
//                [--streams=N] [--mux-shards=K]
//                [--hierarchical] [--segment=N] [--certify]
//                [--repeat=R] [--out=FILE] [--smoke]
//
//     --batch=N        number of generated jobs (default 8)
//     --workload=KIND  phased | random | random-walk | bursty | periodic |
//                      mixed (default mixed: cycles through all five)
//     --tasks, --steps, --universe
//                      per-job instance shape (defaults 4 / 96 / 32)
//     --seed=S         root seed; job i derives stream i (default 1)
//     --portfolio=...  comma-separated standard_solvers() subset
//                      (default: full line-up)
//     --deadline-ms=D  per-job budget, 0 = none (default 0)
//     --jobs=P         worker threads, 0 = hardware (default 0)
//     --trace=FILE     load a hyperrec-trace v1 file as one job instead of
//                      generating; repeatable, overrides --batch
//     --cache-capacity=C
//                      memoizing solve cache with C entries, 0 = off
//                      (default 0); duplicate jobs coalesce and repeats
//                      return cached schedules
//     --cache-ttl-ms=T cache entry time-to-live, 0 = no expiry (default 0)
//     --warm-start     seed iterative solvers with same-shape cached
//                      incumbents on cache misses (needs --cache-capacity)
//     --stream         streaming replay: feed each job's trace step-by-step
//                      through a windowed streaming engine (warm-started
//                      re-solves + final flush) instead of one offline
//                      solve; the JSON gains per-window reports
//     --window=W       streaming solve window in steps (default 256)
//     --trigger=SPEC   comma-separated re-solve triggers (needs --stream):
//                      steps:N | spike:F | spike-min:D | rent-or-buy |
//                      tick:MS (default steps:16 when --stream is set)
//     --streams=N      multiplexed streaming: N generated traces stream
//                      concurrently through one StreamMultiplexer (implies
//                      --stream, overrides --batch; the JSON gains the
//                      "fleet" object)
//     --mux-shards=K   multiplexer shard lanes (default 4; needs --streams)
//     --hierarchical   solve each job with the hierarchical segment-parallel
//                      solver (core/hierarchical.hpp) instead of a flat
//                      portfolio race; each job's solution carries a
//                      certified lower_bound / gap_pct (jobs the portfolio
//                      solves exactly come back flat with a 0% gap), and
//                      with --cache-capacity the window solves share the
//                      cache.
//                      Offline only (incompatible with --stream/--streams)
//     --segment=N      hierarchical segment length in steps (default 512;
//                      needs --hierarchical)
//     --certify        attach lower_bound / gap_pct certificates to flat
//                      portfolio solves too (implied by --hierarchical)
//     --repeat=R       solve the batch R times through the same engine and
//                      cache (default 1); the JSON reports the last round,
//                      whose cache stats are cumulative — with a cache,
//                      round 2+ are pure hits
//     --out=FILE       write JSON there instead of stdout
//     --smoke          tiny batch for CI (4 small jobs, 50 ms deadline)
//
// Exit status: 0 on success (including jobs that failed individually —
// inspect "ok" in the JSON), 1 on malformed invocation or I/O errors.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cache/solve_cache.hpp"
#include "core/hierarchical.hpp"
#include "engine/batch_engine.hpp"
#include "io/result_json.hpp"
#include "io/trace_io.hpp"
#include "streaming/streaming_engine.hpp"
#include "streaming/trigger_spec.hpp"
#include "workload/generators.hpp"

namespace {

using namespace hyperrec;

struct CliOptions {
  std::size_t batch = 8;
  std::string workload = "mixed";
  std::size_t tasks = 4;
  std::size_t steps = 96;
  std::size_t universe = 32;
  std::uint64_t seed = 1;
  std::vector<std::string> portfolio;
  std::chrono::milliseconds deadline{0};
  std::size_t jobs = 0;
  std::vector<std::string> trace_files;
  std::size_t cache_capacity = 0;
  std::chrono::milliseconds cache_ttl{0};
  bool warm_start = false;
  bool stream = false;
  std::size_t window = 256;
  std::string trigger;
  std::size_t streams = 0;
  std::size_t mux_shards = 4;
  bool hierarchical = false;
  std::size_t segment = 512;
  bool certify = false;
  std::size_t repeat = 1;
  std::string out;
};

bool parse_flag(const char* arg, const char* name, std::string& value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  value = arg + len + 1;
  return true;
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = text.find(',', begin);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > begin) parts.push_back(text.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return parts;
}

/// Default machine for a trace: local-only, l_j = the task's universe.
MachineSpec machine_for(const MultiTaskTrace& trace) {
  std::vector<std::size_t> locals;
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    locals.push_back(trace.task(j).local_universe());
  }
  return MachineSpec::local_only(locals);
}

engine::BatchJob make_generated_job(const std::string& kind,
                                    const CliOptions& options,
                                    std::uint64_t stream) {
  Xoshiro256 root(options.seed);
  Xoshiro256 rng = root.split(stream);
  engine::BatchJob job;
  job.trace = workload::make_multi_family(kind, options.tasks, options.steps,
                                          options.universe, rng);
  job.machine = machine_for(job.trace);
  job.name = kind + "-" + std::to_string(stream);
  return job;
}

engine::BatchJob make_loaded_job(const std::string& path) {
  std::ifstream file(path);
  HYPERREC_ENSURE(file.good(), "cannot open trace file: " + path);
  engine::BatchJob job;
  job.trace = io::load_trace(file);
  job.machine = machine_for(job.trace);
  job.name = path;
  return job;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  try {
    // Apply --smoke first so explicit flags win regardless of their
    // position on the command line.
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--smoke") == 0) {
        options.batch = 4;
        options.tasks = 2;
        options.steps = 24;
        options.universe = 12;
        options.deadline = std::chrono::milliseconds{50};
      }
    }
    std::string value;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--smoke") == 0) {
        continue;  // handled above
      } else if (parse_flag(arg, "--batch", value)) {
        options.batch = std::stoul(value);
      } else if (parse_flag(arg, "--workload", value)) {
        options.workload = value;
      } else if (parse_flag(arg, "--tasks", value)) {
        options.tasks = std::stoul(value);
      } else if (parse_flag(arg, "--steps", value)) {
        options.steps = std::stoul(value);
      } else if (parse_flag(arg, "--universe", value)) {
        options.universe = std::stoul(value);
      } else if (parse_flag(arg, "--seed", value)) {
        options.seed = std::stoull(value);
      } else if (parse_flag(arg, "--portfolio", value)) {
        options.portfolio = split_csv(value);
      } else if (parse_flag(arg, "--deadline-ms", value)) {
        options.deadline = std::chrono::milliseconds{std::stoll(value)};
      } else if (parse_flag(arg, "--jobs", value)) {
        options.jobs = std::stoul(value);
      } else if (parse_flag(arg, "--trace", value)) {
        options.trace_files.push_back(value);
      } else if (parse_flag(arg, "--cache-capacity", value)) {
        options.cache_capacity = std::stoul(value);
      } else if (parse_flag(arg, "--cache-ttl-ms", value)) {
        options.cache_ttl = std::chrono::milliseconds{std::stoll(value)};
      } else if (std::strcmp(arg, "--warm-start") == 0) {
        options.warm_start = true;
      } else if (std::strcmp(arg, "--stream") == 0) {
        options.stream = true;
      } else if (parse_flag(arg, "--window", value)) {
        options.window = std::stoul(value);
      } else if (parse_flag(arg, "--trigger", value)) {
        options.trigger = value;
      } else if (parse_flag(arg, "--streams", value)) {
        options.streams = std::stoul(value);
      } else if (parse_flag(arg, "--mux-shards", value)) {
        options.mux_shards = std::stoul(value);
      } else if (std::strcmp(arg, "--hierarchical") == 0) {
        options.hierarchical = true;
      } else if (parse_flag(arg, "--segment", value)) {
        options.segment = std::stoul(value);
      } else if (std::strcmp(arg, "--certify") == 0) {
        options.certify = true;
      } else if (parse_flag(arg, "--repeat", value)) {
        options.repeat = std::stoul(value);
      } else if (parse_flag(arg, "--out", value)) {
        options.out = value;
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", arg);
        std::fprintf(stderr,
                     "usage: %s [--batch=N] [--workload=KIND] [--tasks=M] "
                     "[--steps=N] [--universe=L] [--seed=S] [--portfolio=a,b] "
                     "[--deadline-ms=D] [--jobs=P] [--trace=FILE] "
                     "[--cache-capacity=C] [--cache-ttl-ms=T] [--warm-start] "
                     "[--stream] [--window=W] [--trigger=SPEC] "
                     "[--streams=N] [--mux-shards=K] "
                     "[--hierarchical] [--segment=N] [--certify] "
                     "[--repeat=R] [--out=FILE] [--smoke]\n",
                     argv[0]);
        return 1;
      }
    }
    // --streams=N is multiplexed streaming shorthand: it implies --stream
    // and sizes the generated fleet (loaded --trace files keep their count).
    if (options.streams > 0) {
      options.stream = true;
      options.batch = options.streams;
    }
    const std::vector<std::string>& kinds = workload::family_names();
    std::vector<engine::BatchJob> jobs;
    if (!options.trace_files.empty()) {
      for (const std::string& path : options.trace_files) {
        jobs.push_back(make_loaded_job(path));
      }
    } else {
      for (std::size_t i = 0; i < options.batch; ++i) {
        const std::string kind = options.workload == "mixed"
                                     ? kinds[i % kinds.size()]
                                     : options.workload;
        jobs.push_back(make_generated_job(kind, options, i));
      }
    }

    HYPERREC_ENSURE(options.repeat >= 1, "--repeat must be at least 1");
    HYPERREC_ENSURE(!options.warm_start || options.cache_capacity > 0,
                    "--warm-start requires --cache-capacity > 0");
    HYPERREC_ENSURE(options.trigger.empty() || options.stream,
                    "--trigger requires --stream");
    HYPERREC_ENSURE(!options.hierarchical || !options.stream,
                    "--hierarchical is an offline solver; it cannot be "
                    "combined with --stream/--streams");
    engine::BatchEngineConfig config;
    config.parallelism = options.jobs;
    config.portfolio.solvers = options.portfolio;
    config.portfolio.deadline = options.deadline;
    if (options.stream) {
      config.stream.enabled = true;
      config.stream.window = options.window;
      config.stream.trigger =
          options.trigger.empty()
              ? streaming::parse_trigger_spec("steps:16")
              : streaming::parse_trigger_spec(options.trigger);
      if (options.streams > 0) {
        config.stream.multiplex = true;
        config.stream.shards = options.mux_shards;
      }
    }
    if (options.cache_capacity > 0) {
      cache::SolveCacheConfig cache_config;
      cache_config.capacity = options.cache_capacity;
      cache_config.ttl = options.cache_ttl;
      config.cache = std::make_shared<cache::SolveCache>(cache_config);
      config.warm_start = options.warm_start;
    }
    config.certify = options.certify;
    if (options.hierarchical) {
      // Per-job custom solver: the hierarchical tier fans segments out on
      // the *global* pool (distinct from the engine's job pool, so the two
      // levels of parallelism cannot deadlock each other) and shares the
      // engine's cache for segment memoization.
      config.solver = [segment = options.segment, cache = config.cache,
                       solvers = options.portfolio](
                          const engine::BatchJob& job,
                          const CancelToken& token) {
        const SolveInstance instance(job.trace, job.machine, job.options);
        HierarchicalConfig hier;
        hier.segment = segment;
        hier.portfolio.solvers = solvers;
        hier.cache = cache;
        hier.cancel = token;
        return solve_hierarchical(instance, hier).solution;
      };
    }
    const engine::BatchEngine batch_engine(std::move(config));

    engine::BatchResult result;
    for (std::size_t round = 0; round < options.repeat; ++round) {
      result = batch_engine.solve(jobs);
      std::size_t failed = 0;
      for (const auto& job : result.jobs) {
        if (!job.ok) ++failed;
      }
      std::fprintf(stderr,
                   "round %zu/%zu: %zu jobs (%zu failed) on %zu workers in "
                   "%lld us",
                   round + 1, options.repeat, result.jobs.size(), failed,
                   result.parallelism,
                   static_cast<long long>(result.elapsed.count()));
      if (result.cache_enabled) {
        std::fprintf(stderr,
                     "; cache %zu/%zu entries, %llu hits, %llu misses, "
                     "%llu coalesced",
                     result.cache_size, result.cache_capacity,
                     static_cast<unsigned long long>(result.cache_stats.hits),
                     static_cast<unsigned long long>(result.cache_stats.misses),
                     static_cast<unsigned long long>(
                         result.cache_stats.coalesced));
      }
      if (result.fleet.has_value()) {
        std::fprintf(
            stderr, "; fleet %zu streams, %llu appends, %llu resolves",
            result.fleet->streams,
            static_cast<unsigned long long>(result.fleet->accepted),
            static_cast<unsigned long long>(result.fleet->resolves));
      }
      std::fprintf(stderr, "\n");
    }

    if (options.out.empty()) {
      io::save_batch_result_json(std::cout, result);
    } else {
      std::ofstream file(options.out);
      HYPERREC_ENSURE(file.good(), "cannot open output file: " + options.out);
      io::save_batch_result_json(file, result);
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
