// SolveCache: hit/miss/insert semantics, full-key verification against
// forged fingerprint collisions, LRU eviction order, TTL expiry,
// single-flight coalescing under concurrency, exception propagation, and
// the warm-start index.
#include "cache/solve_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/lower_bound.hpp"
#include "testutil/trace_builders.hpp"

namespace hyperrec::cache {
namespace {

/// A distinct tiny instance per `tag` (the tag sets the first requirement).
InstanceKey key_for(std::uint32_t tag) {
  MultiTaskTrace trace;
  TaskTrace task(32);
  DynamicBitset first(32);
  for (std::size_t s = 0; s < 32; ++s) {
    if ((tag >> (s % 8)) & 1u) first.set(s);
  }
  task.push_back({std::move(first), tag});
  task.push_back({DynamicBitset(32).set(1), 0});
  trace.add_task(std::move(task));
  return make_instance_key(trace, MachineSpec::local_only({32}), {});
}

/// A recognisable dummy solution; `marker` round-trips through the cache.
MTSolution solution_with(Cost marker) {
  MTSolution solution;
  solution.schedule.tasks.push_back(Partition::single(2));
  solution.breakdown.total = marker;
  return solution;
}

TEST(SolveCache, MissThenInsertThenHit) {
  SolveCache cache({.capacity = 8, .ttl = {}, .shards = 2});
  const InstanceKey key = key_for(1);
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, solution_with(42));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->total(), 42);
  EXPECT_EQ(cache.size(), 1u);

  const SolveCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(SolveCache, RefreshingALiveEntryIsNotAnInsertion) {
  // Regression: re-storing over a live entry used to bump `insertions`, so
  // fleet metrics overcounted "distinct window instances stored".  A
  // re-store now counts as a refresh; the entry itself stays one entry and
  // serves the newest solution.
  SolveCache cache({.capacity = 8, .ttl = {}, .shards = 1});
  const InstanceKey key = key_for(9);
  cache.insert(key, solution_with(10));
  cache.insert(key, solution_with(11));
  cache.insert(key, solution_with(12));

  const SolveCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.refreshes, 2u);
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->total(), 12);

  // A genuinely new key is an insertion again.
  cache.insert(key_for(10), solution_with(1));
  EXPECT_EQ(cache.stats().insertions, 2u);
  EXPECT_EQ(cache.stats().refreshes, 2u);
}

TEST(SolveCache, ForcedFingerprintCollisionIsRejectedByFullKeyCheck) {
  SolveCache cache({.capacity = 8, .ttl = {}, .shards = 1});
  const InstanceKey genuine = key_for(2);
  cache.insert(genuine, solution_with(7));

  // Forge a key with the same 128-bit fingerprint but different canonical
  // bytes — the situation an (astronomically unlikely) hash collision
  // would produce.  The full-key verification must treat it as a miss, not
  // silently serve the other instance's solution.
  InstanceKey forged = genuine;
  forged.canonical += "-different-instance";
  EXPECT_FALSE(cache.lookup(forged).has_value());
  EXPECT_EQ(cache.stats().collisions, 1u);

  // The genuine key still hits: rejection must not evict the entry.
  EXPECT_TRUE(cache.lookup(genuine).has_value());
}

TEST(SolveCache, ForcedCollisionInGetOrComputeRecomputesWithoutCaching) {
  SolveCache cache({.capacity = 8, .ttl = {}, .shards = 1});
  const InstanceKey genuine = key_for(3);
  cache.insert(genuine, solution_with(1));
  InstanceKey forged = genuine;
  forged.canonical += "x";

  int computes = 0;
  const auto compute = [&]() {
    ++computes;
    return solution_with(99);
  };
  CacheOutcome outcome = CacheOutcome::kHit;
  const MTSolution got = cache.get_or_compute(forged, compute, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  EXPECT_EQ(got.total(), 99);
  EXPECT_EQ(computes, 1);
  // The genuine entry survives and still serves its own solution — the
  // colliding insert must keep the incumbent, not overwrite it.
  const auto genuine_hit = cache.lookup(genuine);
  ASSERT_TRUE(genuine_hit.has_value());
  EXPECT_EQ(genuine_hit->total(), 1);
  // One collision observed on the forged read, one on the colliding store.
  EXPECT_GE(cache.stats().collisions, 2u);
}

TEST(SolveCache, SizeNeverExceedsCapacityAcrossShards) {
  // The budget must partition exactly across however many shards the
  // config ends up with — a ceil-divided per-shard quota would admit more
  // than `capacity` entries in total.
  for (const std::size_t capacity : {6u, 24u, 100u}) {
    SolveCache cache({.capacity = capacity, .ttl = {}, .shards = 8});
    for (std::uint32_t tag = 100; tag < 100 + 2 * capacity + 8; ++tag) {
      cache.insert(key_for(tag), solution_with(tag));
      EXPECT_LE(cache.size(), cache.capacity())
          << "capacity " << capacity << " after tag " << tag;
    }
    EXPECT_EQ(cache.capacity(), capacity);
    EXPECT_GT(cache.stats().evictions, 0u);
  }
}

TEST(SolveCache, SmallCapacityDoesNotThrashAcrossShallowShards) {
  // capacity 8 with the default 8 stripes used to yield 1-entry shards:
  // two keys hashing to the same shard then evicted each other on every
  // round while other shards sat empty.  The shard count must shrink so
  // that a handful of distinct keys within capacity all stay resident.
  SolveCache cache({.capacity = 8, .ttl = {}, .shards = 8});
  std::vector<InstanceKey> keys;
  for (std::uint32_t tag = 200; tag < 206; ++tag) {
    keys.push_back(key_for(tag));
  }
  for (int round = 0; round < 3; ++round) {
    for (const InstanceKey& key : keys) {
      if (!cache.lookup(key).has_value()) {
        cache.insert(key, solution_with(1));
      }
    }
  }
  EXPECT_EQ(cache.stats().evictions, 0u)
      << "6 keys within capacity 8 must all stay resident";
  for (const InstanceKey& key : keys) {
    EXPECT_TRUE(cache.lookup(key).has_value());
  }
}

TEST(SolveCache, LruEvictsLeastRecentlyUsedFirst) {
  // shards = 1 makes the LRU order globally exact for the test.
  SolveCache cache({.capacity = 2, .ttl = {}, .shards = 1});
  const InstanceKey a = key_for(10);
  const InstanceKey b = key_for(11);
  const InstanceKey c = key_for(12);
  cache.insert(a, solution_with(1));
  cache.insert(b, solution_with(2));
  ASSERT_TRUE(cache.lookup(a).has_value());  // touch a → b is now LRU

  cache.insert(c, solution_with(3));  // evicts b, not a
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup(a).has_value());
  EXPECT_FALSE(cache.lookup(b).has_value());
  EXPECT_TRUE(cache.lookup(c).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SolveCache, ReinsertRefreshesInsteadOfDuplicating) {
  SolveCache cache({.capacity = 4, .ttl = {}, .shards = 1});
  const InstanceKey key = key_for(20);
  cache.insert(key, solution_with(1));
  cache.insert(key, solution_with(2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(key)->total(), 2);
}

TEST(SolveCache, TtlExpiresEntriesOnAccess) {
  SolveCache cache(
      {.capacity = 4, .ttl = std::chrono::milliseconds{2}, .shards = 1});
  const InstanceKey key = key_for(30);
  cache.insert(key, solution_with(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().expirations, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SolveCache, GetOrComputeCachesTheComputedValue) {
  SolveCache cache({.capacity = 4, .ttl = {}, .shards = 2});
  const InstanceKey key = key_for(40);
  int computes = 0;
  const auto compute = [&]() {
    ++computes;
    return solution_with(77);
  };
  CacheOutcome first = CacheOutcome::kHit;
  EXPECT_EQ(cache.get_or_compute(key, compute, &first).total(), 77);
  EXPECT_EQ(first, CacheOutcome::kMiss);
  CacheOutcome second = CacheOutcome::kMiss;
  EXPECT_EQ(cache.get_or_compute(key, compute, &second).total(), 77);
  EXPECT_EQ(second, CacheOutcome::kHit);
  EXPECT_EQ(computes, 1);
}

TEST(SolveCache, NonCacheableComputeIsServedButNotMemoized) {
  SolveCache cache({.capacity = 8, .ttl = {}, .shards = 1});
  const InstanceKey key = key_for(45);
  int computes = 0;
  const auto truncated = [&]() {
    ++computes;
    return ComputeResult{solution_with(13), /*cacheable=*/false};
  };
  EXPECT_EQ(cache.get_or_compute_guarded(key, truncated).total(), 13);
  EXPECT_EQ(cache.size(), 0u) << "truncated results must not be memoized";
  EXPECT_FALSE(cache.lookup(key).has_value());
  // A later authoritative compute fills the cache normally.
  EXPECT_EQ(cache
                .get_or_compute_guarded(
                    key, [&]() { return ComputeResult{solution_with(14)}; })
                .total(),
            14);
  EXPECT_EQ(cache.lookup(key)->total(), 14);
  EXPECT_EQ(computes, 1);
}

TEST(SolveCache, NonCacheableComputeStillFeedsCoalescedWaiters) {
  SolveCache cache({.capacity = 8, .ttl = {}, .shards = 1});
  const InstanceKey key = key_for(46);
  std::atomic<int> computes{0};
  const auto slow_truncated = [&]() {
    computes.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    return ComputeResult{solution_with(21), /*cacheable=*/false};
  };
  std::vector<std::thread> threads;
  std::vector<Cost> totals(4, 0);
  for (std::size_t t = 0; t < totals.size(); ++t) {
    threads.emplace_back([&, t]() {
      totals[t] = cache.get_or_compute_guarded(key, slow_truncated).total();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Cost total : totals) EXPECT_EQ(total, 21);
  // Coalesced waiters were fed by the flight, yet nothing was stored —
  // arrivals after the flight ended may have recomputed.
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SolveCache, SingleFlightCoalescesConcurrentIdenticalJobs) {
  SolveCache cache({.capacity = 8, .ttl = {}, .shards = 4});
  const InstanceKey key = key_for(50);
  std::atomic<int> computes{0};
  const auto compute = [&]() {
    computes.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return solution_with(123);
  };

  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<Cost> totals(kThreads, 0);
  std::vector<CacheOutcome> outcomes(kThreads, CacheOutcome::kMiss);
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      totals[t] = cache.get_or_compute(key, compute, &outcomes[t]).total();
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(computes.load(), 1) << "N identical jobs must cost one solve";
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(totals[t], 123) << "thread " << t;
  }
  std::size_t misses = 0;
  std::size_t piggybacked = 0;
  for (const CacheOutcome outcome : outcomes) {
    if (outcome == CacheOutcome::kMiss) ++misses;
    if (outcome == CacheOutcome::kCoalesced) ++piggybacked;
  }
  EXPECT_EQ(misses, 1u);
  // Late arrivals may land after the insert and see a plain hit; everyone
  // who arrived during the flight must have coalesced.
  EXPECT_EQ(piggybacked, cache.stats().coalesced);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SolveCache, ComputeExceptionPropagatesToAllWaitersAndClearsFlight) {
  SolveCache cache({.capacity = 8, .ttl = {}, .shards = 1});
  const InstanceKey key = key_for(60);
  std::atomic<int> attempts{0};
  const auto failing = [&]() -> MTSolution {
    attempts.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    throw std::runtime_error("solver blew up");
  };

  std::atomic<int> caught{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() {
      try {
        (void)cache.get_or_compute(key, failing);
      } catch (const std::runtime_error&) {
        caught.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(caught.load(), 4) << "leader and waiters all observe the error";
  EXPECT_GE(attempts.load(), 1);

  // The failed flight must not wedge the key: a later compute succeeds.
  const MTSolution ok = cache.get_or_compute(key, [&]() {
    return solution_with(8);
  });
  EXPECT_EQ(ok.total(), 8);
}

TEST(SolveCache, ComputeAskingForItsOwnKeyDoesNotWaitOnItself) {
  // A leader's compute that asks the cache for the same key again (a
  // BatchEngine job whose solver shares the engine's cache) used to wait on
  // its own flight forever.  The nested request computes independently;
  // only the outer result is stored.
  SolveCache cache({.capacity = 8, .ttl = {}, .shards = 1});
  const InstanceKey key = key_for(62);
  CacheOutcome inner_outcome = CacheOutcome::kHit;
  const MTSolution outer = cache.get_or_compute(key, [&]() {
    const MTSolution inner = cache.get_or_compute(
        key, [] { return solution_with(5); }, &inner_outcome);
    return solution_with(inner.total() + 1);
  });
  EXPECT_EQ(outer.total(), 6);
  EXPECT_EQ(inner_outcome, CacheOutcome::kMiss);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().coalesced, 0u);
  EXPECT_EQ(cache.inflight(), 0u);
  const auto stored = cache.lookup(key);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->total(), 6);
}

TEST(SolveCache, FailedPiggybackCountsAsCoalescedFailureNotAHit) {
  // Regression: the waiter path bumped `coalesced` before blocking on the
  // flight's future — i.e. the outcome was recorded before the flight
  // resolved.  A leader that threw still left its waiters counted as
  // successful coalesced hits, so /statz overstated cache effectiveness
  // exactly when the portfolio was failing.  The fix records the flight's
  // fate: a rethrowing waiter lands in `coalesced_failures`.
  SolveCache cache({.capacity = 8, .ttl = {}, .shards = 1});
  const InstanceKey key = key_for(61);
  std::atomic<bool> leader_in_compute{false};
  std::atomic<bool> release{false};
  std::atomic<int> attempts{0};
  const auto failing = [&]() -> MTSolution {
    attempts.fetch_add(1, std::memory_order_relaxed);
    leader_in_compute.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw std::runtime_error("leader blew up");
  };

  std::atomic<int> caught{0};
  std::thread leader([&]() {
    try {
      (void)cache.get_or_compute(key, failing);
    } catch (const std::runtime_error&) {
      caught.fetch_add(1, std::memory_order_relaxed);
    }
  });
  while (!leader_in_compute.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  CacheOutcome waiter_outcome = CacheOutcome::kMiss;
  std::thread waiter([&]() {
    try {
      (void)cache.get_or_compute(key, failing, &waiter_outcome);
    } catch (const std::runtime_error&) {
      caught.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // The flight stays registered while the leader is parked in compute; give
  // the waiter time to find it and block, then let the leader throw.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.store(true, std::memory_order_release);
  leader.join();
  waiter.join();

  EXPECT_EQ(attempts.load(), 1) << "the waiter must piggyback, not recompute";
  EXPECT_EQ(caught.load(), 2);
  // `outcome` still reports the path taken (written before the wait, the
  // documented exits-by-exception contract)...
  EXPECT_EQ(waiter_outcome, CacheOutcome::kCoalesced);
  // ...but the stats record the flight's fate: no successful coalesced hit
  // happened here.
  const SolveCacheStats stats = cache.stats();
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.coalesced_failures, 1u);
}

TEST(SolveCache, WarmStartReturnsSameShapeSchedule) {
  SolveCache cache({.capacity = 8, .ttl = {}, .shards = 1});
  // Two same-shape instances with different content.
  const InstanceKey key = key_for(70);
  MTSolution cached;
  cached.schedule.tasks.push_back(Partition::from_starts({0, 1}, 2));
  cached.breakdown.total = 5;
  cache.insert(key, cached);

  MultiTaskTrace other;
  TaskTrace task(32);
  task.push_back({DynamicBitset(32).set(3), 0});
  task.push_back({DynamicBitset(32).set(4), 0});
  other.add_task(std::move(task));

  const auto warm =
      cache.warm_start_for(other, MachineSpec::local_only({32}));
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->tasks.size(), 1u);
  EXPECT_EQ(warm->tasks.front().starts(), (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(warm->global_boundaries.empty())
      << "normalized for a machine without global resources";
  EXPECT_EQ(cache.stats().warm_hits, 1u);

  // A different shape finds nothing.
  MultiTaskTrace longer;
  TaskTrace three(32);
  for (int i = 0; i < 3; ++i) three.push_back({DynamicBitset(32), 0});
  longer.add_task(std::move(three));
  EXPECT_FALSE(
      cache.warm_start_for(longer, MachineSpec::local_only({32})).has_value());
}

TEST(SolveCache, WarmStartNormalizesGlobalBoundariesForGlobalMachines) {
  SolveCache cache({.capacity = 8, .ttl = {}, .shards = 1});
  const InstanceKey key = key_for(80);
  cache.insert(key, solution_with(9));

  MachineSpec with_global = MachineSpec::local_only({32});
  with_global.private_global_units = 2;
  with_global.global_init = 4;

  MultiTaskTrace same_shape;
  TaskTrace task(32);
  task.push_back({DynamicBitset(32).set(0), 1});
  task.push_back({DynamicBitset(32).set(5), 2});
  same_shape.add_task(std::move(task));

  const auto warm = cache.warm_start_for(same_shape, with_global);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->global_boundaries, (std::vector<std::size_t>{0}));
}

void expect_same_solution(const MTSolution& hit, const MTSolution& fresh) {
  ASSERT_EQ(hit.schedule.tasks.size(), fresh.schedule.tasks.size());
  for (std::size_t j = 0; j < fresh.schedule.tasks.size(); ++j) {
    EXPECT_EQ(hit.schedule.tasks[j].n(), fresh.schedule.tasks[j].n());
    EXPECT_EQ(hit.schedule.tasks[j].starts(), fresh.schedule.tasks[j].starts())
        << "task " << j;
  }
  EXPECT_EQ(hit.schedule.global_boundaries, fresh.schedule.global_boundaries);
  EXPECT_EQ(hit.breakdown.total, fresh.breakdown.total);
  EXPECT_EQ(hit.breakdown.hyper, fresh.breakdown.hyper);
  EXPECT_EQ(hit.breakdown.reconfig, fresh.breakdown.reconfig);
  EXPECT_EQ(hit.breakdown.global_hyper, fresh.breakdown.global_hyper);
  EXPECT_EQ(hit.breakdown.partial_hyper_steps,
            fresh.breakdown.partial_hyper_steps);
  EXPECT_EQ(hit.lower_bound, fresh.lower_bound);
  EXPECT_EQ(hit.gap_pct, fresh.gap_pct);
}

TEST(SolveCache, HitRebuildsTheFreshSolutionExactly) {
  // Entries keep per-task boundary masks instead of Partition starts; a hit
  // must rebuild the identical solution.  n = 100 is not a multiple of 64
  // (the masks span a partial last word), and the machine has global
  // resources, so the schedule carries global boundaries (0 and 37, where
  // every task has a boundary too) and the breakdown a global term.
  Xoshiro256 rng(0xB0B);
  const std::size_t n = 100;
  MultiTaskTrace trace;
  trace.add_task(testutil::random_task_trace(rng, n, 13));
  trace.add_task(testutil::random_task_trace(rng, n, 70));
  MachineSpec machine = MachineSpec::local_only({13, 70});
  machine.public_context_size = 3;
  machine.global_init = 7;
  MultiTaskSchedule schedule =
      testutil::random_schedule(rng, trace, machine, 0.2);
  for (Partition& partition : schedule.tasks) {
    DynamicBitset mask = partition.to_boundary_mask();
    mask.set(37);
    partition = Partition::from_boundary_mask(mask);
  }
  schedule.global_boundaries = {0, 37};
  const SolveInstance instance(trace, machine);
  MTSolution fresh = make_solution(instance, std::move(schedule));
  attach_certificate(instance, fresh);
  ASSERT_GT(fresh.breakdown.global_hyper, 0);
  ASSERT_TRUE(fresh.gap_pct.has_value());

  SolveCache cache({.capacity = 8, .ttl = {}, .shards = 1});
  const InstanceKey key = make_instance_key(instance);
  cache.insert(key, fresh);
  const std::optional<MTSolution> hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  expect_same_solution(*hit, fresh);
  CacheOutcome outcome = CacheOutcome::kMiss;
  const MTSolution coalesced = cache.get_or_compute(
      key, []() -> MTSolution { throw std::runtime_error("must hit"); },
      &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kHit);
  expect_same_solution(coalesced, fresh);
}

TEST(SolveCache, CapacityOfZeroIsRejected) {
  EXPECT_THROW(SolveCache({.capacity = 0}), PreconditionError);
}

TEST(SolveCache, WarmIndexCanBeDisabled) {
  SolveCache cache({.capacity = 4, .ttl = {}, .shards = 1,
                    .warm_capacity = 0});
  const InstanceKey key = key_for(90);
  cache.insert(key, solution_with(3));
  MultiTaskTrace same_shape;
  TaskTrace task(32);
  task.push_back({DynamicBitset(32), 0});
  task.push_back({DynamicBitset(32), 0});
  same_shape.add_task(std::move(task));
  EXPECT_FALSE(cache.warm_start_for(same_shape, MachineSpec::local_only({32}))
                   .has_value());
}

}  // namespace
}  // namespace hyperrec::cache
