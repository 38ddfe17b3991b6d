#include "core/hierarchical.hpp"

#include <algorithm>
#include <atomic>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "cache/fingerprint.hpp"
#include "core/segments.hpp"
#include "support/cost_math.hpp"
#include "support/thread_pool.hpp"

namespace hyperrec {

HierarchicalResult solve_hierarchical(const SolveInstance& instance,
                                      const HierarchicalConfig& config) {
  HYPERREC_ENSURE(instance.synchronized(),
                  "hierarchical solver needs equal-length traces");
  HYPERREC_ENSURE(!instance.options().changeover,
                  "hierarchical solver does not support changeover costs: "
                  "interval costs would couple across segment seams");
  HYPERREC_ENSURE(config.segment >= 1, "segment length must be at least 1");

  const MultiTaskTrace& trace = instance.trace();
  const MachineSpec& machine = instance.machine();
  const EvalOptions& options = instance.options();
  const std::size_t n = instance.steps();
  const std::size_t m = instance.task_count();

  engine::PortfolioConfig member = config.portfolio;
  member.parallel = false;  // segments, not members, are the parallel unit
  member.pool = nullptr;

  HierarchicalResult result;

  // Flat: one window covers the whole trace, or the member portfolio is
  // exact on the instance — its answer is then the optimum at any length,
  // and segments, seams and a relaxation could only cost more.
  const bool exact = engine::portfolio_is_exact(instance, member);
  if (n <= config.segment || exact) {
    result.segments = 1;
    if (config.cache) {
      cache::CacheOutcome outcome = cache::CacheOutcome::kMiss;
      result.solution = config.cache->get_or_compute_guarded(
          cache::make_instance_key(instance),
          [&] {
            return cache::ComputeResult{
                engine::solve_portfolio(instance, member, config.cancel).best,
                true};
          },
          &outcome);
      if (outcome != cache::CacheOutcome::kMiss) ++result.cache_hits;
    } else {
      result.solution =
          engine::solve_portfolio(instance, member, config.cancel).best;
    }
    result.global_blocks = result.solution.schedule.global_boundaries.size();
    if (config.certify && exact) {
      // The optimum certifies itself.
      result.solution.lower_bound = result.solution.total();
      result.solution.gap_pct = 0.0;
    } else if (config.certify) {
      attach_certificate(instance, result.solution, config.bound);
    }
    return result;
  }

  // Segment windows [starts[k], starts[k+1]).
  std::vector<std::size_t> seg_starts;
  for (std::size_t s = 0; s < n; s += config.segment) seg_starts.push_back(s);
  const std::size_t segments = seg_starts.size();
  result.segments = segments;
  auto seg_end = [&](std::size_t k) {
    return k + 1 < segments ? seg_starts[k + 1] : n;
  };

  // Every window must fit the private-global pool on its own — a finer
  // segmentation is the only remedy, so fail with that advice up front
  // instead of letting every portfolio member die on the quota check.
  for (std::size_t k = 0; k < segments; ++k) {
    HYPERREC_ENSURE(instance.stats().block_quota_sum(seg_starts[k],
                                                     seg_end(k)) <=
                        machine.private_global_units,
                    "a segment exceeds the private-global pool on its own; "
                    "shrink HierarchicalConfig::segment");
  }

  // Segments are solved against the machine minus its global
  // hyperreconfiguration cost — the boundary DP below owns the w·#blocks
  // term (same construction as solve_private_global's block machine).
  MachineSpec seg_machine = machine;
  seg_machine.global_init = 0;

  std::vector<MTSolution> seg_solutions(segments);
  std::vector<std::string> seg_errors(segments);
  std::atomic<std::size_t> hits{0};
  auto solve_segment = [&](std::size_t k) noexcept {
    try {
      MultiTaskTrace sub = trace.slice(seg_starts[k], seg_end(k));
      if (config.cache) {
        cache::CacheOutcome outcome = cache::CacheOutcome::kMiss;
        const cache::InstanceKey key =
            cache::make_instance_key(sub, seg_machine, options);
        seg_solutions[k] = config.cache->get_or_compute_guarded(
            key,
            [&] {
              SolveInstance window(std::move(sub), seg_machine, options);
              return cache::ComputeResult{
                  engine::solve_portfolio(window, member, config.cancel).best,
                  true};
            },
            &outcome);
        if (outcome != cache::CacheOutcome::kMiss) {
          hits.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        const SolveInstance window(std::move(sub), seg_machine, options);
        seg_solutions[k] =
            engine::solve_portfolio(window, member, config.cancel).best;
      }
      if (machine.has_global_resources()) {
        ensure_single_block(seg_solutions[k].schedule);
      }
    } catch (const std::exception& e) {
      seg_errors[k] = e.what();
    }
  };

  // Segments fan out over the global pool; a caller already running on one
  // of its workers solves them serially (same no-work-stealing rule as the
  // portfolio racer).
  ThreadPool& pool = ThreadPool::global();
  if (!pool.on_worker_thread()) {
    std::vector<std::future<void>> futures;
    futures.reserve(segments);
    for (std::size_t k = 0; k < segments; ++k) {
      futures.push_back(pool.submit([&, k] { solve_segment(k); }));
    }
    for (auto& future : futures) future.get();
  } else {
    for (std::size_t k = 0; k < segments; ++k) solve_segment(k);
  }
  for (std::size_t k = 0; k < segments; ++k) {
    if (!seg_errors[k].empty()) {
      throw PreconditionError("hierarchical segment " + std::to_string(k) +
                              " failed: " + seg_errors[k]);
    }
  }
  result.cache_hits = hits.load(std::memory_order_relaxed);

  std::vector<SchedulePiece> pieces;
  for (std::size_t k = 0; k < segments; ++k) {
    pieces.push_back(
        {seg_starts[k], seg_solutions[k].schedule, seg_end(k) - seg_starts[k]});
  }
  MultiTaskSchedule schedule = stitch(pieces);

  // Boundary DP over the segment edges at constant w.  Every segment start
  // is already a boundary of every task, so the block structure only
  // decides the w·#blocks term and per-block quota feasibility — the
  // hyper/reconfig terms do not change, and the DP is exact at segment
  // granularity.
  if (machine.has_global_resources()) {
    schedule.global_boundaries = solve_block_dp(
        seg_starts, n, [&](std::size_t lo, std::size_t hi) {
          return instance.stats().block_quota_sum(lo, hi) <=
                         machine.private_global_units
                     ? std::optional<Cost>(machine.global_init)
                     : std::nullopt;
        });
  }
  result.global_blocks = schedule.global_boundaries.size();

  // Seam repair: a forced boundary at a segment edge is dropped for task j
  // when merging the adjacent intervals is an exact-cost win.  Only under
  // task-sequential reconfiguration upload (per-task deltas separate; under
  // the per-step max they do not), and never at a chosen global boundary
  // (those must stay boundaries of every task).  Deltas are computed
  // against the current partition state, so each accepted merge is an exact
  // improvement of the final evaluated cost.
  if (config.seam_repair &&
      options.reconfig_upload == UploadMode::kTaskSequential) {
    const std::vector<std::size_t>& global_bounds = schedule.global_boundaries;
    std::vector<std::vector<std::size_t>> task_starts;
    task_starts.reserve(m);
    for (const Partition& partition : schedule.tasks) {
      task_starts.push_back(partition.starts());
    }
    const bool hyper_parallel =
        options.hyper_upload == UploadMode::kTaskParallel;
    for (std::size_t k = 1; k < segments; ++k) {
      const std::size_t seam = seg_starts[k];
      if (std::binary_search(global_bounds.begin(), global_bounds.end(),
                             seam)) {
        continue;
      }
      // Tasks still hyperreconfiguring at this seam (all of them, until a
      // merge removes one).
      std::vector<std::size_t> at_seam(m);
      for (std::size_t j = 0; j < m; ++j) at_seam[j] = 1;
      auto seam_hyper_max = [&]() {
        Cost term = 0;
        for (std::size_t j = 0; j < m; ++j) {
          if (at_seam[j]) term = std::max(term, machine.tasks[j].local_init);
        }
        return term;
      };
      for (std::size_t j = 0; j < m; ++j) {
        std::vector<std::size_t>& starts = task_starts[j];
        const auto it =
            std::lower_bound(starts.begin(), starts.end(), seam);
        HYPERREC_ASSERT(it != starts.end() && *it == seam && it != starts.begin());
        const std::size_t p = *(it - 1);
        const std::size_t q =
            (it + 1 != starts.end()) ? *(it + 1) : n;
        const TaskTraceStats& stats = instance.task_stats(j);
        // Each delta is computed so nothing wraps: interval costs saturate
        // at kCostInfinity (max/4), so their difference stays in range.
        auto interval_cost = [&stats](std::size_t lo, std::size_t hi) {
          return cost_mul(static_cast<Cost>(stats.local_union_count(lo, hi)) +
                              static_cast<Cost>(stats.max_private_demand(lo, hi)),
                          static_cast<Cost>(hi - lo));
        };
        const Cost reconfig_delta = interval_cost(p, q) -
                                    interval_cost(p, seam) -
                                    interval_cost(seam, q);
        // Dropping task j's boundary takes exactly v_j off the seam's Σ
        // under task-sequential hyper upload (−v_j, saturating); under
        // task-parallel upload the seam's max may drop.
        const Cost before_max = seam_hyper_max();
        at_seam[j] = 0;
        const Cost hyper_delta =
            hyper_parallel ? seam_hyper_max() - before_max
                           : cost_mul(machine.tasks[j].local_init, -1);
        if (cost_add(reconfig_delta, hyper_delta) < 0) {
          starts.erase(it);
          ++result.seam_merges;
        } else {
          at_seam[j] = 1;
        }
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      schedule.tasks[j] = Partition::from_starts(std::move(task_starts[j]), n);
    }
  }
  result.solution = make_solution_from_tables(instance, std::move(schedule));
  if (config.certify) {
    attach_certificate(instance, result.solution, config.bound);
  }
  return result;
}

}  // namespace hyperrec
