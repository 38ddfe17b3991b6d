#include "core/lower_bound.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/interval_dp.hpp"
#include "model/cost_switch.hpp"
#include "support/cost_math.hpp"

namespace hyperrec {

namespace {

/// Σ of [first, last), saturating at kCostInfinity like the costs it bounds:
/// a near-maximum v_j must not wrap the bound above the cost.
template <typename It>
Cost saturating_sum(It first, It last) {
  return std::accumulate(first, last, Cost{0}, cost_add);
}

/// Per-step context size |req_j(l)| + d_j(l): whatever interval serves step
/// l, its hypercontext covers the step's requirement and its quota covers
/// the step's demand, so this is a floor on the task's reconfiguration
/// element at step l.
Cost step_size(const TaskTrace& task, std::size_t l) {
  const ContextRequirement& req = task.at(l);
  return static_cast<Cost>(req.local.count()) +
         static_cast<Cost>(req.private_demand);
}

/// Chunked single-task DP bound on task j's share of the hyper +
/// reconfiguration cost in any multi-task schedule.  Restricting the true
/// schedule's intervals to a chunk only shrinks unions and range maxima,
/// and at most one interval per chunk had its hyperreconfiguration paid in
/// an earlier chunk — so Σ_chunks max(DP(chunk) − [not first]·v, Σ step
/// sizes) never exceeds the task's true share.  Each chunk's DP runs in
/// place on the task's trace.
Cost task_dp_bound(const TaskTrace& task, const std::vector<Cost>& sizes,
                   Cost hyper_init, std::size_t chunk) {
  const std::size_t n = task.size();
  Cost bound = 0;
  for (std::size_t lo = 0; lo < n; lo += chunk) {
    const std::size_t hi = std::min(n, lo + chunk);
    Cost dp = single_task_switch_cost(task, lo, hi, hyper_init);
    if (lo > 0) dp -= hyper_init;
    const Cost per_step =
        saturating_sum(sizes.begin() + static_cast<std::ptrdiff_t>(lo),
                       sizes.begin() + static_cast<std::ptrdiff_t>(hi));
    bound = cost_add(bound, std::max(dp, per_step));
  }
  return bound;
}

}  // namespace

LowerBoundCertificate compute_lower_bound(const SolveInstance& instance,
                                          const LowerBoundConfig& config) {
  HYPERREC_ENSURE(instance.synchronized(),
                  "lower bounds require a synchronized trace");
  const MultiTaskTrace& trace = instance.trace();
  const MachineSpec& machine = instance.machine();
  const EvalOptions& options = instance.options();
  const std::size_t n = instance.steps();
  const std::size_t m = instance.task_count();

  LowerBoundCertificate cert;
  if (n == 0 || m == 0) return cert;  // a zero bound is always sound

  const Cost global_term =
      machine.has_global_resources() ? machine.global_init : 0;
  const Cost pub = static_cast<Cost>(machine.public_context_size);

  // One pass per task computes its per-step sizes once: they feed the
  // per-step bound (1) and every chunk's floor and the task's total floor
  // in the relaxation (2).
  std::size_t chunk = config.chunk;
  if (chunk == 0) chunk = n <= 2048 ? n : 512;
  std::vector<Cost> step_term(n, pub);
  std::vector<Cost> sizes(n);
  std::vector<Cost> dp_bound(m);
  std::vector<Cost> step_sum(m);
  for (std::size_t j = 0; j < m; ++j) {
    const TaskTrace& task = trace.task(j);
    for (std::size_t l = 0; l < n; ++l) {
      sizes[l] = step_size(task, l);
      step_term[l] =
          detail::combine(options.reconfig_upload, step_term[l], sizes[l]);
    }
    step_sum[j] = saturating_sum(sizes.begin(), sizes.end());
    dp_bound[j] =
        task_dp_bound(task, sizes, machine.tasks[j].local_init, chunk);
  }

  // 1. Per-step demand bound.  Step 0 additionally hyperreconfigures every
  // task (under changeover the charge is local_init + |h Δ ∅| ≥ local_init,
  // so using local_init stays sound).
  const Cost per_step_total =
      saturating_sum(step_term.begin(), step_term.end());
  Cost first_hyper = 0;
  for (std::size_t j = 0; j < m; ++j) {
    first_hyper = detail::combine(options.hyper_upload, first_hyper,
                                  machine.tasks[j].local_init);
  }
  cert.per_step_bound =
      cost_add(cost_add(per_step_total, first_hyper), global_term);

  // 2. Interval-union relaxation.  The exact single-task DP lower-bounds
  // each task's share (forced boundaries from the multi-task schedule only
  // cost more); how the per-task bounds add up depends on the upload modes.
  const Cost pub_total = cost_mul(static_cast<Cost>(n), pub);
  Cost relax = 0;
  if (options.reconfig_upload == UploadMode::kTaskSequential) {
    if (options.hyper_upload == UploadMode::kTaskSequential) {
      // Both terms add across tasks: every task pays its full DP bound.
      relax = pub_total;
      for (std::size_t j = 0; j < m; ++j) {
        relax = cost_add(relax, dp_bound[j]);
      }
    } else {
      // Hyper is a per-step max, so only one task's hyperreconfigurations
      // are guaranteed charged: credit every task's per-step floor plus the
      // best single task's DP surplus over that floor.
      relax = pub_total;
      Cost surplus = 0;
      for (std::size_t j = 0; j < m; ++j) {
        relax = cost_add(relax, step_sum[j]);
        surplus = std::max(surplus, dp_bound[j] - step_sum[j]);
      }
      relax = cost_add(relax, surplus);
    }
  } else {
    // Per-step reconfig max: the best single task's DP bound, or the public
    // context floor plus the first step's hyperreconfigurations.
    Cost best_task = 0;
    for (std::size_t j = 0; j < m; ++j) {
      best_task = std::max(best_task, dp_bound[j]);
    }
    relax = std::max(best_task, cost_add(pub_total, first_hyper));
  }
  cert.dp_relaxation_bound = cost_add(relax, global_term);

  cert.bound = std::max(cert.per_step_bound, cert.dp_relaxation_bound);
  return cert;
}

std::optional<double> certified_gap_pct(Cost total, Cost lower_bound) {
  if (lower_bound <= 0) {
    if (total <= 0) return 0.0;
    return std::nullopt;
  }
  if (total <= lower_bound) return 0.0;
  return static_cast<double>(total - lower_bound) * 100.0 /
         static_cast<double>(lower_bound);
}

void attach_certificate(const SolveInstance& instance, MTSolution& solution,
                        const LowerBoundConfig& config) {
  const LowerBoundCertificate cert = compute_lower_bound(instance, config);
  solution.lower_bound = cert.bound;
  solution.gap_pct = certified_gap_pct(solution.total(), cert.bound);
}

}  // namespace hyperrec
