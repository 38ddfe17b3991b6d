// Memoizing solve cache: sharded, mutex-striped LRU over instance
// fingerprints, with single-flight coalescing and a warm-start index.
//
// The serving-layer caching leg of the roadmap: real reconfigurable-hardware
// schedulers exploit workload repetition by prefetching and reusing
// previously computed configurations, and the paper's cost models are pure
// functions of (trace, machine, options) — so a solved schedule can be
// served again at hash-lookup cost.  Three cooperating mechanisms:
//
//   * LRU value cache — capacity-bounded, optional TTL, keyed by the
//     128-bit instance fingerprint.  Every hit re-verifies the full
//     canonical key bytes, so a fingerprint collision can never leak a
//     different instance's solution (it is counted in `collisions` and
//     treated as a miss).  An entry keeps the key bytes plus the solution
//     with per-task boundary masks in place of Partition start vectors;
//     a hit rebuilds the identical MTSolution (about 2 KB per entry at 4
//     tasks × 96 steps × 32 switches).
//   * Single-flight — concurrent get_or_compute calls for the same key
//     coalesce onto one in-flight computation; duplicates within a batch
//     cost one solve plus a future wait.  A compute that throws propagates
//     the exception to every waiter and clears the flight so later calls
//     retry.
//   * Warm-start index — the most recent solution per instance *shape*
//     (task count, per-task steps and universe).  On a near-miss (same
//     shape, different content/costs) the cached schedule seeds the
//     iterative solvers via PortfolioConfig::warm_start, buying convergence
//     instead of a full restart.
//
// Sharding: entries are striped over power-of-two shards by fingerprint,
// each with its own mutex and LRU list; the capacity partitions exactly
// across shards (remainder spread one per shard), so size() never exceeds
// capacity() — eviction order is exact per shard, approximate globally.
// All methods are thread-safe; stats counters are relaxed atomics.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <vector>

#include "cache/fingerprint.hpp"
#include "core/solver.hpp"

namespace hyperrec::cache {

struct SolveCacheConfig {
  /// Total entry budget across all shards; must be at least 1.
  std::size_t capacity = 1024;
  /// Entries older than this are expired on access; 0 means no expiry.
  std::chrono::milliseconds ttl{0};
  /// Mutex stripes; rounded up to a power of two, clamped to [1, 64] and
  /// further so every shard holds at least 8 entries (shallow shards turn
  /// unlucky same-shard keys into permanent mutual eviction).
  std::size_t shards = 8;
  /// Warm-start index budget (one entry per instance shape); 0 disables
  /// the index.
  std::size_t warm_capacity = 64;
};

struct SolveCacheStats {
  std::uint64_t hits = 0;         ///< full-key-verified cache hits
  std::uint64_t misses = 0;       ///< lookups that had to (re)compute
  std::uint64_t coalesced = 0;    ///< waits served by an in-flight solve
  /// Piggybacked waits whose leader threw: the waiter rethrows and gets no
  /// solution, so it must not count as a successful coalesced hit.
  std::uint64_t coalesced_failures = 0;
  std::uint64_t insertions = 0;   ///< brand-new entries stored
  std::uint64_t refreshes = 0;    ///< re-stores over an existing live entry
  std::uint64_t evictions = 0;    ///< LRU capacity evictions
  std::uint64_t expirations = 0;  ///< TTL expiries observed on access
  std::uint64_t collisions = 0;   ///< fingerprint matched, canonical bytes did not
  std::uint64_t warm_hits = 0;    ///< warm-start schedules handed out
};

/// How get_or_compute satisfied a request.
enum class CacheOutcome : std::uint8_t { kMiss, kHit, kCoalesced };

/// Result of a get_or_compute compute callback.  `cacheable = false` hands
/// the solution to the caller and any coalesced waiters but keeps it out of
/// the cache — for answers that are valid but not authoritative, e.g. a
/// deadline-truncated incumbent that must not be memoized as the instance's
/// solution.
struct ComputeResult {
  MTSolution solution;
  bool cacheable = true;
};

class SolveCache {
 public:
  explicit SolveCache(SolveCacheConfig config = {});
  ~SolveCache();

  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// Full-key-verified lookup; counts a hit or a miss.
  [[nodiscard]] std::optional<MTSolution> lookup(const InstanceKey& key);

  /// Inserts (or refreshes) the solution for `key` and updates the
  /// warm-start index for its shape.
  void insert(const InstanceKey& key, const MTSolution& solution);

  /// Single-flight memoized solve: returns the cached solution on a hit,
  /// waits on an identical in-flight computation when one exists, and
  /// otherwise runs `compute` in the calling thread and caches its result.
  /// Exceptions from `compute` propagate to the caller and all coalesced
  /// waiters.  A `compute` that asks for its own key again computes that
  /// nested request independently instead of waiting on itself.
  /// `outcome`, when non-null, reports which path was taken; it is written
  /// *before* computing or waiting, so it is valid even when the call exits
  /// by exception.
  [[nodiscard]] MTSolution get_or_compute(
      const InstanceKey& key, const std::function<MTSolution()>& compute,
      CacheOutcome* outcome = nullptr);

  /// As above, but the callback may mark its result non-cacheable (see
  /// ComputeResult) — waiters still receive it; the cache stays untouched.
  [[nodiscard]] MTSolution get_or_compute_guarded(
      const InstanceKey& key, const std::function<ComputeResult()>& compute,
      CacheOutcome* outcome = nullptr);

  /// Most recent cached schedule with `trace`'s shape, normalized for
  /// `machine` (global boundaries stripped or pinned to step 0), or nullopt.
  [[nodiscard]] std::optional<MultiTaskSchedule> warm_start_for(
      const MultiTaskTrace& trace, const MachineSpec& machine);

  /// Instance-keyed warm-start lookup (same semantics).
  [[nodiscard]] std::optional<MultiTaskSchedule> warm_start_for(
      const SolveInstance& instance);

  [[nodiscard]] SolveCacheStats stats() const;
  [[nodiscard]] std::size_t size() const;
  /// Single-flight computations currently registered across all shards —
  /// a quiesced serving stack must read 0 (the soak gate and /statz use
  /// this to prove flights never leak).
  [[nodiscard]] std::size_t inflight() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Shard;
  struct WarmIndex;

  Shard& shard_for(const Fingerprint128& fp) const noexcept;
  void update_warm_index(const InstanceKey& key, const MTSolution& solution);

  std::size_t capacity_ = 0;
  std::chrono::milliseconds ttl_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<WarmIndex> warm_;
  struct Counters;
  std::unique_ptr<Counters> counters_;
};

}  // namespace hyperrec::cache
