#include "cache/solve_cache.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <future>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/thread_annotations.hpp"

namespace hyperrec::cache {

namespace {

using Clock = std::chrono::steady_clock;

/// Flights the calling thread leads, innermost last.  A compute callback
/// that asks the cache for its own key again (solve_hierarchical's flat
/// branch inside a BatchEngine job that shares its cache) would wait on its
/// own future forever; it computes independently instead.
thread_local std::vector<const void*> t_led_flights;

/// Registers a led flight for the scope of its compute callback.
class LeadingFlight {
 public:
  explicit LeadingFlight(const void* flight) : active_(flight != nullptr) {
    if (active_) t_led_flights.push_back(flight);
  }
  ~LeadingFlight() {
    if (active_) t_led_flights.pop_back();
  }
  LeadingFlight(const LeadingFlight&) = delete;
  LeadingFlight& operator=(const LeadingFlight&) = delete;

 private:
  bool active_;
};

/// A cached solution in its stored form.  The per-task boundary masks are
/// packed into one word array — per task its step count, then its mask
/// words — instead of one start vector per Partition (a 96-step task takes
/// 3 words however many boundaries it has), and a hit rebuilds each
/// partition with Partition::from_boundary_mask.
struct StoredSolution {
  std::vector<DynamicBitset::Word> boundaries;
  std::vector<std::size_t> global_boundaries;
  CostBreakdown breakdown;
  std::optional<Cost> lower_bound;
  std::optional<double> gap_pct;
};

StoredSolution store_form(const MTSolution& solution) {
  StoredSolution stored;
  std::size_t words = 0;
  for (const Partition& partition : solution.schedule.tasks) {
    words += 1 + (partition.n() + DynamicBitset::kWordBits - 1) /
                     DynamicBitset::kWordBits;
  }
  stored.boundaries.reserve(words);
  for (const Partition& partition : solution.schedule.tasks) {
    const DynamicBitset mask = partition.to_boundary_mask();
    stored.boundaries.push_back(mask.size());
    stored.boundaries.insert(stored.boundaries.end(), mask.words().begin(),
                             mask.words().end());
  }
  stored.global_boundaries = solution.schedule.global_boundaries;
  stored.breakdown = solution.breakdown;
  stored.lower_bound = solution.lower_bound;
  stored.gap_pct = solution.gap_pct;
  return stored;
}

MTSolution restore(const StoredSolution& stored) {
  MTSolution solution;
  const DynamicBitset::Word* at = stored.boundaries.data();
  const DynamicBitset::Word* const end = at + stored.boundaries.size();
  while (at != end) {
    const std::size_t steps = *at++;
    const std::size_t words =
        (steps + DynamicBitset::kWordBits - 1) / DynamicBitset::kWordBits;
    // OR-ing the stored row with itself copies it into a fresh mask.
    solution.schedule.tasks.push_back(Partition::from_boundary_mask(
        DynamicBitset::from_or_words(steps, at, at, words)));
    at += words;
  }
  solution.schedule.global_boundaries = stored.global_boundaries;
  solution.breakdown = stored.breakdown;
  solution.lower_bound = stored.lower_bound;
  solution.gap_pct = stored.gap_pct;
  return solution;
}

}  // namespace

struct SolveCache::Counters {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> coalesced{0};
  std::atomic<std::uint64_t> coalesced_failures{0};
  std::atomic<std::uint64_t> insertions{0};
  std::atomic<std::uint64_t> refreshes{0};
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> expirations{0};
  std::atomic<std::uint64_t> collisions{0};
  std::atomic<std::uint64_t> warm_hits{0};
};

struct SolveCache::Shard {
  struct Entry {
    std::string canonical;
    StoredSolution solution;
    Clock::time_point expires;
    std::list<Fingerprint128>::iterator lru_it;
  };
  struct Flight {
    std::string canonical;
    std::shared_future<MTSolution> future;
  };

  /// One lock class for all shards — stripes of one family never nest.
  mutable Mutex mutex{"SolveCache::shard"};
  /// This shard's slice of the total capacity (remainder spread one per
  /// shard, so Σ shard capacities == the configured capacity exactly).
  std::size_t capacity = 0;
  std::unordered_map<Fingerprint128, Entry, Fingerprint128Hash> map
      GUARDED_BY(mutex);
  /// Front = most recently used; erased entries are unlinked via lru_it.
  std::list<Fingerprint128> lru GUARDED_BY(mutex);
  std::unordered_map<Fingerprint128, std::shared_ptr<Flight>,
                     Fingerprint128Hash>
      inflight GUARDED_BY(mutex);

  /// Locked helper: finds a live, full-key-verified entry, expiring stale
  /// ones and counting forged/unlucky fingerprint collisions.
  Entry* find_live(const InstanceKey& key, Clock::time_point now,
                   Counters& counters) REQUIRES(mutex) {
    const auto it = map.find(key.fingerprint);
    if (it == map.end()) return nullptr;
    if (it->second.expires != Clock::time_point::max() &&
        now >= it->second.expires) {
      lru.erase(it->second.lru_it);
      map.erase(it);
      counters.expirations.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    if (it->second.canonical != key.canonical) {
      // Fingerprint collision: never serve another instance's solution.
      counters.collisions.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    return &it->second;
  }

  void touch(Entry& entry) REQUIRES(mutex) {
    lru.splice(lru.begin(), lru, entry.lru_it);
  }

  /// Locked helper: inserts or refreshes; evicts from the LRU tail when the
  /// shard is at capacity.
  void store(const InstanceKey& key, const MTSolution& solution,
             Clock::time_point expires, std::size_t shard_capacity,
             Counters& counters) REQUIRES(mutex) {
    const auto it = map.find(key.fingerprint);
    if (it != map.end()) {
      if (it->second.canonical != key.canonical) {
        // Fingerprint collision on insert: keep the incumbent — replacing
        // it would let a colliding instance evict another's entry, and the
        // new value simply stays uncached (the same never-serve-wrong rule
        // the read side enforces).
        counters.collisions.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      it->second.solution = store_form(solution);
      it->second.expires = expires;
      touch(it->second);
      // A refresh of a live entry is not an insertion: the fleet metrics
      // read insertions as "distinct window instances stored", and
      // re-storing the same key must not inflate that.
      counters.refreshes.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    while (map.size() >= shard_capacity && !lru.empty()) {
      const Fingerprint128 victim = lru.back();
      lru.pop_back();
      map.erase(victim);
      counters.evictions.fetch_add(1, std::memory_order_relaxed);
    }
    lru.push_front(key.fingerprint);
    Entry entry{key.canonical, store_form(solution), expires, lru.begin()};
    map.emplace(key.fingerprint, std::move(entry));
    counters.insertions.fetch_add(1, std::memory_order_relaxed);
  }
};

struct SolveCache::WarmIndex {
  struct Entry {
    MultiTaskSchedule schedule;
    std::list<Fingerprint128>::iterator lru_it;
  };

  mutable Mutex mutex{"SolveCache::warm"};
  std::unordered_map<Fingerprint128, Entry, Fingerprint128Hash> map
      GUARDED_BY(mutex);
  std::list<Fingerprint128> lru GUARDED_BY(mutex);
  std::size_t capacity = 0;

  void store(const Fingerprint128& shape, const MultiTaskSchedule& schedule) {
    const MutexLock lock(mutex);
    const auto it = map.find(shape);
    if (it != map.end()) {
      it->second.schedule = schedule;
      lru.splice(lru.begin(), lru, it->second.lru_it);
      return;
    }
    while (map.size() >= capacity && !lru.empty()) {
      map.erase(lru.back());
      lru.pop_back();
    }
    lru.push_front(shape);
    map.emplace(shape, Entry{schedule, lru.begin()});
  }

  std::optional<MultiTaskSchedule> find(const Fingerprint128& shape) {
    const MutexLock lock(mutex);
    const auto it = map.find(shape);
    if (it == map.end()) return std::nullopt;
    lru.splice(lru.begin(), lru, it->second.lru_it);
    return it->second.schedule;
  }
};

SolveCache::SolveCache(SolveCacheConfig config)
    : capacity_(config.capacity), ttl_(config.ttl) {
  HYPERREC_ENSURE(config.capacity >= 1, "cache capacity must be at least 1");
  std::size_t shard_count = std::bit_ceil(
      config.shards == 0 ? std::size_t{1}
                         : (config.shards > 64 ? std::size_t{64}
                                               : config.shards));
  // Keep every shard at least kMinShardDepth entries deep (largest power
  // of two that allows it): hashing is oblivious to shard boundaries, so
  // 1-entry shards make two keys in one shard evict each other forever
  // while other shards sit empty.
  constexpr std::size_t kMinShardDepth = 8;
  const std::size_t max_shards =
      std::bit_floor(std::max<std::size_t>(capacity_ / kMinShardDepth, 1));
  if (shard_count > max_shards) shard_count = max_shards;
  // Partition the budget exactly: base entries per shard, remainder spread
  // one per shard — size() can never exceed capacity().
  const std::size_t base = capacity_ / shard_count;
  const std::size_t remainder = capacity_ % shard_count;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->capacity = base + (i < remainder ? 1 : 0);
  }
  if (config.warm_capacity > 0) {
    warm_ = std::make_unique<WarmIndex>();
    warm_->capacity = config.warm_capacity;
  }
  counters_ = std::make_unique<Counters>();
}

SolveCache::~SolveCache() = default;

SolveCache::Shard& SolveCache::shard_for(
    const Fingerprint128& fp) const noexcept {
  return *shards_[fp.lo & (shards_.size() - 1)];
}

std::optional<MTSolution> SolveCache::lookup(const InstanceKey& key) {
  Shard& shard = shard_for(key.fingerprint);
  const MutexLock lock(shard.mutex);
  Shard::Entry* entry = shard.find_live(key, Clock::now(), *counters_);
  if (entry == nullptr) {
    counters_->misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  shard.touch(*entry);
  counters_->hits.fetch_add(1, std::memory_order_relaxed);
  return restore(entry->solution);
}

void SolveCache::insert(const InstanceKey& key, const MTSolution& solution) {
  const Clock::time_point expires = ttl_.count() > 0
                                        ? Clock::now() + ttl_
                                        : Clock::time_point::max();
  Shard& shard = shard_for(key.fingerprint);
  {
    const MutexLock lock(shard.mutex);
    shard.store(key, solution, expires, shard.capacity, *counters_);
  }
  update_warm_index(key, solution);
}

MTSolution SolveCache::get_or_compute(
    const InstanceKey& key, const std::function<MTSolution()>& compute,
    CacheOutcome* outcome) {
  return get_or_compute_guarded(
      key, [&compute]() { return ComputeResult{compute(), true}; }, outcome);
}

MTSolution SolveCache::get_or_compute_guarded(
    const InstanceKey& key, const std::function<ComputeResult()>& compute,
    CacheOutcome* outcome) {
  Shard& shard = shard_for(key.fingerprint);
  std::shared_ptr<Shard::Flight> flight;
  std::promise<MTSolution> promise;
  bool leader = false;
  {
    const MutexLock lock(shard.mutex);
    Shard::Entry* entry = shard.find_live(key, Clock::now(), *counters_);
    if (entry != nullptr) {
      shard.touch(*entry);
      counters_->hits.fetch_add(1, std::memory_order_relaxed);
      if (outcome != nullptr) *outcome = CacheOutcome::kHit;
      return restore(entry->solution);
    }
    const auto in_it = shard.inflight.find(key.fingerprint);
    if (in_it != shard.inflight.end() &&
        in_it->second->canonical == key.canonical &&
        std::find(t_led_flights.begin(), t_led_flights.end(),
                  in_it->second.get()) == t_led_flights.end()) {
      flight = in_it->second;
    } else if (in_it == shard.inflight.end()) {
      // Become the leader: register the flight before unlocking so every
      // concurrent duplicate coalesces onto it.
      flight = std::make_shared<Shard::Flight>();
      flight->canonical = key.canonical;
      flight->future = promise.get_future().share();
      shard.inflight.emplace(key.fingerprint, flight);
      leader = true;
    }
    // else: an in-flight computation for a *different* canonical key shares
    // the fingerprint (forged collision), or the flight is this thread's
    // own — compute independently below without touching it.
  }

  if (!leader && flight != nullptr) {
    // `outcome` is still written before the wait (the documented exits-by-
    // exception contract), but the *stats* record the flight's fate: a
    // leader that throws must not leave its waiters counted as successful
    // coalesced hits.
    if (outcome != nullptr) *outcome = CacheOutcome::kCoalesced;
    try {
      MTSolution coalesced = flight->future.get();  // rethrows the leader's
      counters_->coalesced.fetch_add(1, std::memory_order_relaxed);
      return coalesced;
    } catch (...) {
      counters_->coalesced_failures.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
  }

  counters_->misses.fetch_add(1, std::memory_order_relaxed);
  if (outcome != nullptr) *outcome = CacheOutcome::kMiss;
  ComputeResult result;
  try {
    const LeadingFlight leading(leader ? flight.get() : nullptr);
    result = compute();
  } catch (...) {
    if (leader) {
      promise.set_exception(std::current_exception());
      const MutexLock lock(shard.mutex);
      shard.inflight.erase(key.fingerprint);
    }
    throw;
  }
  if (leader) {
    promise.set_value(result.solution);
    const Clock::time_point expires = ttl_.count() > 0
                                          ? Clock::now() + ttl_
                                          : Clock::time_point::max();
    {
      const MutexLock lock(shard.mutex);
      shard.inflight.erase(key.fingerprint);
      if (result.cacheable) {
        shard.store(key, result.solution, expires, shard.capacity,
                    *counters_);
      }
    }
    if (result.cacheable) update_warm_index(key, result.solution);
  }
  return result.solution;
}

std::optional<MultiTaskSchedule> SolveCache::warm_start_for(
    const MultiTaskTrace& trace, const MachineSpec& machine) {
  if (warm_ == nullptr) return std::nullopt;
  std::optional<MultiTaskSchedule> found =
      warm_->find(fingerprint_shape(trace));
  if (!found.has_value()) return std::nullopt;
  // Normalize for the requesting machine: the stored schedule's global
  // boundaries belonged to *its* machine.  Every partition has a boundary
  // at step 0, so {0} is always a valid global boundary set.
  found->global_boundaries.clear();
  if (machine.has_global_resources()) found->global_boundaries.push_back(0);
  try {
    found->validate(trace.task_count(), trace.steps());
  } catch (const std::exception&) {
    // Shape-fingerprint collision or non-synchronized trace: no warm start.
    return std::nullopt;
  }
  counters_->warm_hits.fetch_add(1, std::memory_order_relaxed);
  return found;
}

std::optional<MultiTaskSchedule> SolveCache::warm_start_for(
    const SolveInstance& instance) {
  return warm_start_for(instance.trace(), instance.machine());
}

void SolveCache::update_warm_index(const InstanceKey& key,
                                   const MTSolution& solution) {
  if (warm_ == nullptr) return;
  warm_->store(key.shape, solution.schedule);
}

SolveCacheStats SolveCache::stats() const {
  SolveCacheStats out;
  out.hits = counters_->hits.load(std::memory_order_relaxed);
  out.misses = counters_->misses.load(std::memory_order_relaxed);
  out.coalesced = counters_->coalesced.load(std::memory_order_relaxed);
  out.coalesced_failures =
      counters_->coalesced_failures.load(std::memory_order_relaxed);
  out.insertions = counters_->insertions.load(std::memory_order_relaxed);
  out.refreshes = counters_->refreshes.load(std::memory_order_relaxed);
  out.evictions = counters_->evictions.load(std::memory_order_relaxed);
  out.expirations = counters_->expirations.load(std::memory_order_relaxed);
  out.collisions = counters_->collisions.load(std::memory_order_relaxed);
  out.warm_hits = counters_->warm_hits.load(std::memory_order_relaxed);
  return out;
}

std::size_t SolveCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mutex);
    total += shard->map.size();
  }
  return total;
}

std::size_t SolveCache::inflight() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mutex);
    total += shard->inflight.size();
  }
  return total;
}

}  // namespace hyperrec::cache
