#include "core/dag_dp.hpp"

#include <algorithm>

#include "support/cost_math.hpp"
#include "support/ensure.hpp"

namespace hyperrec {

DagSolution solve_dag_dp(const DagCostModel& model,
                         const std::vector<std::size_t>& sequence) {
  const std::size_t n = sequence.size();
  HYPERREC_ENSURE(n > 0, "empty context sequence");
  for (const std::size_t kind : sequence) {
    HYPERREC_ENSURE(kind < model.kind_count(), "context kind out of range");
  }

  std::vector<Cost> best(n + 1, kCostInfinity);
  std::vector<std::size_t> parent(n + 1, 0);
  std::vector<std::size_t> chosen(n + 1, 0);
  best[0] = 0;

  for (std::size_t end = 1; end <= n; ++end) {
    DynamicBitset needed(model.kind_count());
    for (std::size_t start = end; start-- > 0;) {
      needed.set(sequence[start]);
      const std::size_t h = model.cheapest_satisfying(needed);
      if (h == model.hypercontext_count()) continue;
      const Cost candidate = cost_add(
          cost_add(best[start], model.w()),
          cost_mul(model.cost(h), static_cast<Cost>(end - start)));
      if (candidate < best[end]) {
        best[end] = candidate;
        parent[end] = start;
        chosen[end] = h;
      }
    }
  }
  HYPERREC_ENSURE(best[n] < kCostInfinity,
                  "no hypercontext satisfies some requirement at a finite "
                  "cost");

  DagSolution solution;
  solution.total = best[n];
  std::vector<std::size_t> starts;
  std::vector<std::size_t> hypers;
  for (std::size_t cursor = n; cursor != 0; cursor = parent[cursor]) {
    starts.push_back(parent[cursor]);
    hypers.push_back(chosen[cursor]);
  }
  std::reverse(starts.begin(), starts.end());
  std::reverse(hypers.begin(), hypers.end());
  solution.schedule = DagSchedule{std::move(starts), std::move(hypers)};
  return solution;
}

MtDagSolution solve_mt_dag_aligned(
    const std::vector<DagCostModel>& models,
    const std::vector<std::vector<std::size_t>>& sequences, Cost w,
    bool task_parallel) {
  HYPERREC_ENSURE(!models.empty() && models.size() == sequences.size(),
                  "one DAG model per task required");
  const std::size_t m = models.size();
  const std::size_t n = sequences[0].size();
  HYPERREC_ENSURE(n > 0, "empty context sequence");
  for (const auto& sequence : sequences) {
    HYPERREC_ENSURE(sequence.size() == n,
                    "aligned MT-DAG requires equal-length sequences");
  }

  std::vector<Cost> best(n + 1, kCostInfinity);
  std::vector<std::size_t> parent(n + 1, 0);
  std::vector<std::vector<std::size_t>> chosen(n + 1,
                                               std::vector<std::size_t>(m));
  best[0] = 0;

  std::vector<DynamicBitset> needed;
  for (std::size_t end = 1; end <= n; ++end) {
    needed.clear();
    for (std::size_t j = 0; j < m; ++j) {
      needed.emplace_back(models[j].kind_count());
    }
    for (std::size_t start = end; start-- > 0;) {
      Cost reconfig = 0;
      bool feasible = true;
      std::vector<std::size_t> hypers(m);
      for (std::size_t j = 0; j < m && feasible; ++j) {
        needed[j].set(sequences[j][start]);
        const std::size_t h = models[j].cheapest_satisfying(needed[j]);
        if (h == models[j].hypercontext_count()) {
          feasible = false;
          break;
        }
        hypers[j] = h;
        reconfig = task_parallel ? std::max(reconfig, models[j].cost(h))
                                 : cost_add(reconfig, models[j].cost(h));
      }
      if (!feasible) continue;
      const Cost candidate =
          cost_add(cost_add(best[start], w),
                   cost_mul(reconfig, static_cast<Cost>(end - start)));
      if (candidate < best[end]) {
        best[end] = candidate;
        parent[end] = start;
        chosen[end] = hypers;
      }
    }
  }
  HYPERREC_ENSURE(best[n] < kCostInfinity,
                  "no hypercontext satisfies some requirement at a finite "
                  "cost");

  MtDagSolution solution;
  solution.total = best[n];
  for (std::size_t cursor = n; cursor != 0; cursor = parent[cursor]) {
    solution.starts.push_back(parent[cursor]);
    solution.hypercontexts.push_back(chosen[cursor]);
  }
  std::reverse(solution.starts.begin(), solution.starts.end());
  std::reverse(solution.hypercontexts.begin(), solution.hypercontexts.end());
  return solution;
}

}  // namespace hyperrec
