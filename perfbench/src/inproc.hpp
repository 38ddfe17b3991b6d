// Shapes and building blocks of the in-process workloads, shared by their
// untraced runs (inproc.cpp) and the traced run (traced.cpp).
#pragma once

#include <memory>
#include <vector>

#include "engine/batch_engine.hpp"
#include "core/hierarchical.hpp"
#include "streaming/stream_multiplexer.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

struct FleetShape {
  std::size_t streams, tasks, steps, universe, window;
  std::size_t trigger;  ///< steps between a stream's window re-solves
  std::size_t chunk;    ///< round-robin ticks between drains (one sample)
  std::size_t cache;    ///< shared cache entries
};

struct BatchShape {
  std::size_t jobs, tasks, steps, universe, segment;
};

[[nodiscard]] FleetShape fleet_shape(bool smoke);
[[nodiscard]] BatchShape batch_shape(bool smoke);

[[nodiscard]] hyperrec::streaming::StreamingConfig fleet_stream_config(
    const FleetShape& shape);

/// One fleet replay through a fresh multiplexer and cache.
struct FleetPass {
  double work_s = 0.0;           ///< appends + chunk drains + final flush
  std::uint64_t appended = 0;
  std::vector<double> chunk_ms;  ///< per chunk round trip
  double drain_ms = 0.0;         ///< final flush_all + drain
  std::vector<double> stale_steps;  ///< traced passes only
  hyperrec::streaming::FleetStats stats;
  double cost_sum = 0.0;  ///< filled by check_fleet
  std::unique_ptr<hyperrec::streaming::StreamMultiplexer> mux;
};

[[nodiscard]] FleetPass replay_fleet(
    const std::vector<hyperrec::MultiTaskTrace>& traces,
    const FleetShape& shape, hyperrec::ThreadPool& pool, Tracer& tracer);

/// Fleet accounting, solo bit-identity of sampled streams, cost sum.
void check_fleet(const std::vector<hyperrec::MultiTaskTrace>& traces,
                 const FleetShape& shape, FleetPass& pass, std::uint64_t seed,
                 Report& report);

[[nodiscard]] std::vector<hyperrec::engine::BatchJob> batch_jobs(
    const BatchShape& shape, std::uint64_t seed);
[[nodiscard]] hyperrec::HierarchicalConfig batch_hierarchical_config(
    const BatchShape& shape);
[[nodiscard]] hyperrec::engine::BatchEngineConfig batch_engine_config(
    const BatchShape& shape);

}  // namespace perfbench
