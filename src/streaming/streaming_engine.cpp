#include "streaming/streaming_engine.hpp"

#include <algorithm>
#include <utility>

#include "cache/fingerprint.hpp"
#include "support/ensure.hpp"

namespace hyperrec::streaming {

namespace {

using Clock = std::chrono::steady_clock;

/// A trace with one empty task per machine task.
MultiTaskTrace empty_trace(const MachineSpec& machine) {
  MultiTaskTrace trace;
  for (const TaskSpec& task : machine.tasks) {
    trace.add_task(TaskTrace(task.local_switches));
  }
  return trace;
}

/// Mixes the warm seed into a window cache key.  Deterministic solvers make
/// (instance, seed) → solution a pure function, so a seed-keyed hit is
/// guaranteed to be the exact solution this stream would have computed —
/// the invariant the multiplexed-vs-solo bit-identity property rests on.
/// Only seeds derived from the stream's own state (the published schedule,
/// or a caller preset) are mixed; seeds pulled from the cache's shape index
/// are opportunistic accelerators and stay out of the key.
void mix_seed_into_key(cache::InstanceKey& key,
                       const std::vector<MultiTaskSchedule>& seeds) {
  std::string tag = "|warm:";
  for (const MultiTaskSchedule& seed : seeds) {
    tag += 's';
    for (const Partition& partition : seed.tasks) {
      tag += 'p';
      for (const std::size_t s : partition.starts()) {
        tag += std::to_string(s);
        tag += ',';
      }
    }
    tag += 'g';
    for (const std::size_t g : seed.global_boundaries) {
      tag += std::to_string(g);
      tag += ',';
    }
  }
  key.canonical += tag;
  // FNV-1a's state is the fingerprint: continue it over the tag instead of
  // rehashing the whole canonical key.
  key.fingerprint = cache::fingerprint_extend(key.fingerprint, tag);
  // key.shape stays untouched: the warm-start index still matches on shape.
}

/// What a splice at a seam replaces of a schedule: its starts and global
/// boundaries from the seam on — O(window) on a stream — and the steps it
/// covers (0 for an empty schedule).
struct Replaced {
  std::vector<std::vector<std::size_t>> starts;
  std::vector<std::size_t> global_boundaries;
  std::size_t n = 0;
};

Replaced replaced_from(const MultiTaskSchedule& schedule, std::size_t lo) {
  Replaced replaced;
  if (schedule.tasks.empty()) return replaced;
  replaced.n = schedule.tasks.front().n();
  for (const Partition& partition : schedule.tasks) {
    const std::vector<std::size_t>& starts = partition.starts();
    replaced.starts.emplace_back(
        std::lower_bound(starts.begin(), starts.end(), lo), starts.end());
  }
  const std::vector<std::size_t>& bounds = schedule.global_boundaries;
  replaced.global_boundaries.assign(
      std::lower_bound(bounds.begin(), bounds.end(), lo), bounds.end());
  return replaced;
}

/// Splices `window` onto `schedule` at step lo in place: the starts and
/// global boundaries before lo stay, the window's take over from lo
/// (Partition::replace_tail).  An empty schedule becomes the window.
void splice(MultiTaskSchedule& schedule, std::size_t lo,
            const MultiTaskSchedule& window) {
  if (schedule.tasks.empty()) {
    schedule = window;
    return;
  }
  const std::size_t n = lo + window.tasks.front().n();
  for (std::size_t j = 0; j < schedule.tasks.size(); ++j) {
    schedule.tasks[j].replace_tail(lo, window.tasks[j].starts(), lo, n);
  }
  replace_tail(schedule.global_boundaries, lo, window.global_boundaries, lo);
}

/// Undoes a splice at lo, whole or in part, from what it replaced.
/// Allocates nothing: each vector held the replaced entries before.
void restore(MultiTaskSchedule& schedule, std::size_t lo,
             const Replaced& replaced) {
  if (replaced.n == 0) {
    schedule = MultiTaskSchedule{};
    return;
  }
  for (std::size_t j = 0; j < schedule.tasks.size(); ++j) {
    schedule.tasks[j].replace_tail(lo, replaced.starts[j], 0, replaced.n);
  }
  replace_tail(schedule.global_boundaries, lo, replaced.global_boundaries, 0);
}

}  // namespace

const char* to_string(TriggerKind kind) noexcept {
  switch (kind) {
    case TriggerKind::kInitial: return "initial";
    case TriggerKind::kQuotaRepair: return "quota-repair";
    case TriggerKind::kStepCount: return "step-count";
    case TriggerKind::kDemandSpike: return "demand-spike";
    case TriggerKind::kRentOrBuy: return "rent-or-buy";
    case TriggerKind::kDeadlineTick: return "deadline-tick";
    case TriggerKind::kFlush: return "flush";
  }
  return "initial";
}

StreamingEngine::StreamingEngine(MachineSpec machine, EvalOptions options,
                                 StreamingConfig config)
    : machine_(std::move(machine)),
      options_(options),
      config_(std::move(config)),
      trace_(empty_trace(machine_)) {
  HYPERREC_ENSURE(machine_.task_count() > 0,
                  "streaming engine needs at least one task");
  HYPERREC_ENSURE(config_.window >= 1, "window must be at least 1");
  // The engine is the unit of sequencing: window solves run serially; batch
  // jobs (or whole streams) are what parallelise.
  config_.portfolio.parallel = false;
  config_.portfolio.pool = nullptr;
  if (config_.trigger.rent_or_buy) {
    rent_or_buy_.reserve(machine_.task_count());
    for (const TaskSpec& task : machine_.tasks) {
      rent_or_buy_.emplace_back(task.local_switches, task.local_init,
                                config_.trigger.rent_or_buy_config);
    }
  }
  if (machine_.private_global_units > 0) {
    block_peaks_.assign(machine_.task_count(), 0);
  }
}

std::optional<TriggerKind> StreamingEngine::ingest(
    std::vector<ContextRequirement> step) {
  HYPERREC_ENSURE(step.size() == machine_.task_count(),
                  "append_step needs exactly one requirement per task");
  // Validate the whole step before any state changes: a rejected step must
  // leave the rent-or-buy controllers (fed task by task below) and the tick
  // clock exactly as if it had never been sent.
  for (std::size_t j = 0; j < step.size(); ++j) {
    HYPERREC_ENSURE(step[j].local.size() == machine_.tasks[j].local_switches,
                    "requirement universe differs from its task's universe");
    HYPERREC_ENSURE(step[j].private_demand <= machine_.private_global_units,
                    "step private demand exceeds the machine's pool");
  }
  // Arm the tick clock on first ingest, not at construction: a daemon
  // registers tenant engines ahead of traffic, and a construction-time
  // baseline would let an idle gap before the first steps count as "time
  // since the last solve" and fire kDeadlineTick although nothing was ever
  // solved.
  if (trace_.steps() == 0) last_solve_ = Clock::now();

  // Rent-or-buy controllers see every step (their waste accounting is
  // stateful), whether or not their verdict ends up being the trigger.
  bool bought = false;
  if (config_.trigger.rent_or_buy) {
    for (std::size_t j = 0; j < rent_or_buy_.size(); ++j) {
      bought = rent_or_buy_[j].step(step[j]) || bought;
    }
  }

  trace_.append_step(std::move(step));
  ++pending_;
  const std::size_t n = trace_.steps();
  // The running trigger state takes the step only now that it is in: a
  // rejected step leaves the engine as if it had never been sent.
  for (std::size_t j = 0; j < block_peaks_.size(); ++j) {
    block_peaks_[j] =
        std::max(block_peaks_[j], trace_.task(j).at(n - 1).private_demand);
  }
  const bool spiked = demand_spiked(n - 1);

  if (n == 1) {
    // The first step must always produce a published schedule.
    return TriggerKind::kInitial;
  }

  // Grow the published schedule under the appended step before any
  // re-solve: the splice freezes "boundaries before the window" out of it,
  // so it must cover [0, n) at all times.  O(1) per task — the appended
  // step joins each task's last interval.
  for (Partition& partition : published_.tasks) {
    partition.extend(n);
  }
  published_breakdown_.reset();  // the extended schedule has a new cost

  // Correctness trigger, always on for private-global machines: the
  // appended step joined the published schedule's last quota block, and if
  // the block's Σ_j max demand now overflows the pool the §4.2 evaluator
  // would reject the schedule.  Re-solving forces a global boundary at the
  // splice seam, sealing the overflowing block off.  O(tasks) per step via
  // the running block peaks.
  if (!block_peaks_.empty() && !published_.tasks.empty()) {
    std::uint64_t quota = 0;
    for (const std::uint32_t peak : block_peaks_) quota += peak;
    if (quota > machine_.private_global_units) {
      return TriggerKind::kQuotaRepair;
    }
  }

  const TriggerConfig& trigger = config_.trigger;
  if (trigger.every_steps > 0 && pending_ >= trigger.every_steps) {
    return TriggerKind::kStepCount;
  }
  if (spiked) {
    return TriggerKind::kDemandSpike;
  }
  if (trigger.rent_or_buy && bought) {
    return TriggerKind::kRentOrBuy;
  }
  if (trigger.tick.count() > 0 && Clock::now() - last_solve_ >= trigger.tick) {
    return TriggerKind::kDeadlineTick;
  }
  return std::nullopt;
}

bool StreamingEngine::demand_spiked(std::size_t i) {
  const TriggerConfig& trigger = config_.trigger;
  if (trigger.spike_factor <= 0.0) return false;
  std::uint64_t fresh = 0;
  for (std::size_t j = 0; j < trace_.task_count(); ++j) {
    fresh += trace_.task(j).at(i).private_demand;
  }
  // Baseline: the trailing `window` steps of the *current* trace, fresh
  // step excluded — the deque's front once the steps before them are gone.
  while (!demand_peaks_.empty() &&
         demand_peaks_.front().first + config_.window < i) {
    demand_peaks_.pop_front();
  }
  const std::uint64_t baseline =
      demand_peaks_.empty() ? 0 : demand_peaks_.front().second;
  while (!demand_peaks_.empty() && demand_peaks_.back().second <= fresh) {
    demand_peaks_.pop_back();
  }
  demand_peaks_.emplace_back(i, fresh);
  // An absolute floor keeps an all-quiet baseline (max 0) from firing on
  // the first trickle of demand.
  return fresh >= trigger.spike_min_demand &&
         static_cast<double>(fresh) >
             trigger.spike_factor * static_cast<double>(baseline);
}

bool StreamingEngine::append_step(std::vector<ContextRequirement> step) {
  const std::optional<TriggerKind> trigger = ingest(std::move(step));
  if (!trigger.has_value()) return false;
  resolve_window(*trigger, config_.cancel);
  return true;
}

bool StreamingEngine::flush() {
  if (pending_ == 0 || trace_.steps() == 0) return false;
  resolve_window(TriggerKind::kFlush, config_.cancel);
  return true;
}

std::optional<TriggerKind> StreamingEngine::append_step_deferred(
    std::vector<ContextRequirement> step) {
  HYPERREC_ENSURE(!pending_trigger_.has_value(),
                  "append_step_deferred with a trigger already pending — "
                  "the driver must resolve_pending() first");
  pending_trigger_ = ingest(std::move(step));
  return pending_trigger_;
}

std::optional<TriggerKind> StreamingEngine::request_flush() {
  HYPERREC_ENSURE(!pending_trigger_.has_value(),
                  "request_flush with a trigger already pending — "
                  "the driver must resolve_pending() first");
  if (pending_ == 0 || trace_.steps() == 0) return std::nullopt;
  pending_trigger_ = TriggerKind::kFlush;
  return pending_trigger_;
}

void StreamingEngine::resolve_pending(const CancelToken& cancel) {
  HYPERREC_ENSURE(pending_trigger_.has_value(),
                  "resolve_pending without a latched trigger");
  const TriggerKind trigger = *pending_trigger_;
  pending_trigger_.reset();
  resolve_window(trigger, cancel);
}

MultiTaskSchedule StreamingEngine::warm_seed(std::size_t lo,
                                             std::size_t hi) const {
  // Previous published boundaries restricted to [lo, hi) and re-anchored at
  // 0 — the sliding window shares most of its steps with the previous one,
  // so this is exactly the "previous window's schedule" seed.
  MultiTaskSchedule seed;
  for (const Partition& partition : published_.tasks) {
    // The starts after lo, found by binary search: a long stream's history
    // is not scanned.
    const std::vector<std::size_t>& all = partition.starts();
    std::vector<std::size_t> starts{0};
    for (auto it = std::upper_bound(all.begin(), all.end(), lo);
         it != all.end() && *it < hi; ++it) {
      starts.push_back(*it - lo);
    }
    seed.tasks.push_back(Partition::from_starts(std::move(starts), hi - lo));
  }
  // Global boundaries are normalized by the portfolio for the machine.
  return seed;
}

void StreamingEngine::resolve_window(TriggerKind trigger,
                                     const CancelToken& cancel) {
  const std::size_t hi = trace_.steps();
  // No published schedule (a failed initial solve) means there is no stable
  // prefix to splice against — solve the whole trace in that case.
  const std::size_t lo = (published_.tasks.empty() || hi <= config_.window)
                             ? 0
                             : hi - config_.window;

  WindowReport report;
  report.index = windows_.size();
  report.trigger = trigger;
  report.window_lo = lo;
  report.window_hi = hi;
  const Clock::time_point start = Clock::now();

  try {
    HYPERREC_ENSURE(!cancel.cancelled(),
                    "stream cancelled before the window solve");
    const SolveInstance instance(trace_.slice(lo, hi), machine_,
                                 options_);

    engine::PortfolioConfig per_solve = config_.portfolio;
    // Seeds that are a function of this stream's own state get mixed into
    // the cache key below; a seed borrowed from the cache's shape index is
    // not (it depends on what other tenants solved recently).
    bool seed_in_key = !per_solve.warm_start.empty();
    if (config_.warm_start && per_solve.warm_start.empty()) {
      if (!published_.tasks.empty()) {
        per_solve.warm_start.push_back(warm_seed(lo, hi));
        seed_in_key = true;
      } else if (config_.cache != nullptr && config_.cache_warm_start) {
        if (auto warm = config_.cache->warm_start_for(instance)) {
          per_solve.warm_start.push_back(std::move(*warm));
        }
      }
    }

    MTSolution window_solution;
    if (config_.cache != nullptr) {
      cache::InstanceKey key = cache::make_instance_key(instance);
      if (seed_in_key) mix_seed_into_key(key, per_solve.warm_start);
      cache::CacheOutcome outcome = cache::CacheOutcome::kMiss;
      window_solution = config_.cache->get_or_compute_guarded(
          key,
          [&]() {
            // warm_started is recorded here, where a solve actually runs —
            // a cache hit never consumed the seed, and neither does the
            // exact fast path (PortfolioResult::warm_started).
            engine::PortfolioResult race =
                engine::solve_portfolio(instance, per_solve, cancel);
            report.warm_started = race.warm_started;
            report.winner = std::move(race.winner);
            // A window solved under a fired stream token is a rushed
            // incumbent — serve it, but never memoize it.
            return cache::ComputeResult{std::move(race.best),
                                        !cancel.cancelled()};
          },
          &outcome);
      report.cache = outcome;
      if (outcome == cache::CacheOutcome::kHit) {
        report.winner = "cache";
      } else if (outcome == cache::CacheOutcome::kCoalesced &&
                 report.winner.empty()) {
        // Piggybacked on another stream's in-flight solve of the same
        // (window, seed): no portfolio member ran in this thread, so there
        // is no real winner name to keep.
        report.winner = "coalesced";
      }
    } else {
      engine::PortfolioResult race =
          engine::solve_portfolio(instance, per_solve, cancel);
      report.warm_started = race.warm_started;
      report.winner = std::move(race.winner);
      window_solution = std::move(race.best);
    }
    report.window_cost = window_solution.total();

    // Splice in place: the published boundaries before the window stay
    // frozen and the window schedule takes over from lo.  The frozen prefix
    // was checked when it was published, so only the window piece is
    // checked, before published_ changes.  On machines with global
    // resources the window schedule has a global boundary at its step 0, so
    // lo is a seam: every task starts an interval there and no quota block
    // spans it.
    hyperrec::detail::check_schedule(machine_, window_solution.schedule,
                                     hi - lo);
    const Replaced replaced = replaced_from(published_, lo);
    hyperrec::detail::Seam seam;
    CostBreakdown full;
    try {
      splice(published_, lo, window_solution.schedule);
      // Price from the last seam: walk [seam_, lo) for the state at the new
      // seam, then [lo, hi) — bit-identical to evaluating the whole splice.
      seam = hyperrec::detail::walk_fully_sync(trace_, machine_, published_,
                                               options_, seam_, lo);
      full = hyperrec::detail::walk_fully_sync(trace_, machine_, published_,
                                               options_, seam, hi)
                 .sums;
    } catch (...) {
      restore(published_, lo, replaced);  // publish nothing on a throw
      throw;
    }
    seam_ = std::move(seam);
    // The last quota block now starts at or after lo: its peaks span at
    // most the window.
    if (!block_peaks_.empty()) {
      const std::size_t block_lo = published_.global_boundaries.back();
      for (std::size_t j = 0; j < block_peaks_.size(); ++j) {
        block_peaks_[j] = 0;
        for (std::size_t i = block_lo; i < hi; ++i) {
          block_peaks_[j] =
              std::max(block_peaks_[j], trace_.task(j).at(i).private_demand);
        }
      }
    }
    for (const Partition& partition : published_.tasks) {
      const std::vector<std::size_t>& starts = partition.starts();
      report.splice_prefix_boundaries += static_cast<std::size_t>(
          std::lower_bound(starts.begin(), starts.end(), lo) - starts.begin());
    }
    report.published_cost = full.total;
    published_breakdown_ = full;
    report.ok = true;
    pending_ = 0;
    last_solve_ = Clock::now();
  } catch (const std::exception& error) {
    report.error = error.what();
  }
  report.elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::now() - start);
  windows_.push_back(std::move(report));
}

MTSolution StreamingEngine::current_solution() const {
  HYPERREC_ENSURE(trace_.steps() > 0, "no steps appended yet");
  HYPERREC_ENSURE(!published_.tasks.empty(),
                  "no published schedule (initial solve failed?)");
  MTSolution solution;
  solution.schedule = published_;
  // The last re-solve already evaluated exactly this schedule over exactly
  // this trace; only appends invalidate that breakdown, and then the walk
  // resumes at the last seam.
  solution.breakdown = published_breakdown_.has_value()
                           ? *published_breakdown_
                           : hyperrec::detail::walk_fully_sync(
                                 trace_, machine_, published_, options_,
                                 seam_, trace_.steps())
                                 .sums;
  return solution;
}

}  // namespace hyperrec::streaming
