#include "core/private_global.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/coordinate_descent.hpp"
#include "core/segments.hpp"

namespace hyperrec {

PrivateGlobalSolution solve_private_global(const SolveInstance& instance,
                                           const PrivateGlobalConfig& config) {
  HYPERREC_ENSURE(instance.synchronized(),
                  "private-global solver needs equal-length traces");
  const MachineSpec& machine = instance.machine();
  HYPERREC_ENSURE(machine.private_global_units > 0,
                  "machine has no private-global resources; use a plain "
                  "MT-Switch solver");
  const std::size_t n = instance.steps();
  const std::size_t m = instance.task_count();

  MTSolverFn inner = config.inner;
  if (!inner) {
    inner = [](const SolveInstance& block, const CancelToken& cancel) {
      CoordinateDescentConfig cd_config;
      cd_config.cancel = cancel;
      return solve_coordinate_descent(block, cd_config);
    };
  }

  // Candidate boundaries, always containing 0, sorted + deduplicated.
  std::vector<std::size_t> candidates = config.candidates;
  if (candidates.empty()) {
    candidates.resize(n);
    for (std::size_t i = 0; i < n; ++i) candidates[i] = i;
  } else {
    candidates.push_back(0);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    HYPERREC_ENSURE(candidates.back() < n, "candidate beyond last step");
  }

  // Blocks are solved against the parent machine minus its global
  // hyperreconfiguration cost: the private-global pool stays intact
  // (validate_trace and the evaluator's quota check need the real unit
  // count, and the private demands stay in the trace so the evaluator adds
  // them to |h^loc|), but global_init drops to 0 because the block DP
  // charges w per block itself.
  MachineSpec block_machine = machine;
  block_machine.global_init = 0;

  // The DP prices every feasible block it can reach by one inner solve (on
  // its own SolveInstance, so anything the inner solver races shares the
  // block's precomputation) and keeps only the cheapest solution per end.
  PrivateGlobalSolution result;
  MTSolution priced;
  std::unordered_map<std::size_t, MTSolution> kept;
  const std::vector<std::size_t> bounds = solve_block_dp(
      candidates, n,
      [&](std::size_t lo, std::size_t hi) -> std::optional<Cost> {
        if (instance.stats().block_quota_sum(lo, hi) >
            machine.private_global_units) {
          return std::nullopt;
        }
        const SolveInstance block(instance.trace().slice(lo, hi),
                                  block_machine, instance.options());
        priced = inner(block, config.cancel);
        ++result.inner_invocations;
        ensure_single_block(priced.schedule);
        return machine.global_init + priced.total();
      },
      [&](std::size_t, std::size_t hi) { kept[hi] = std::move(priced); });

  std::vector<SchedulePiece> pieces;
  for (std::size_t b = 0; b < bounds.size(); ++b) {
    const std::size_t lo = bounds[b];
    const std::size_t hi = b + 1 < bounds.size() ? bounds[b + 1] : n;
    pieces.push_back({lo, kept.at(hi).schedule, hi - lo});
    std::vector<std::uint32_t> quotas(m);
    for (std::size_t j = 0; j < m; ++j) {
      quotas[j] = instance.task_stats(j).max_private_demand(lo, hi);
    }
    result.quotas.push_back(std::move(quotas));
  }
  result.solution = make_solution_from_tables(instance, stitch(pieces));
  return result;
}

}  // namespace hyperrec
