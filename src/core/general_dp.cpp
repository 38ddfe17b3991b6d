#include "core/general_dp.hpp"

#include <algorithm>

#include "support/cost_math.hpp"
#include "support/ensure.hpp"

namespace hyperrec {

GeneralSolution solve_general_dp(const GeneralCostModel& model,
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
      // Cheapest hypercontext for this interval.
      Cost interval_best = kCostInfinity;
      std::size_t interval_h = model.hypercontext_count();
      const Cost len = static_cast<Cost>(end - start);
      for (std::size_t h = 0; h < model.hypercontext_count(); ++h) {
        if (!model.satisfies_all(h, needed)) continue;
        const Cost c = cost_add(model.init(h), cost_mul(model.cost(h), len));
        if (c < interval_best) {
          interval_best = c;
          interval_h = h;
        }
      }
      if (interval_h == model.hypercontext_count()) continue;  // unsatisfiable
      const Cost candidate = cost_add(best[start], interval_best);
      if (candidate < best[end]) {
        best[end] = candidate;
        parent[end] = start;
        chosen[end] = interval_h;
      }
    }
  }
  // Saturated costs (support/cost_math.hpp) count as unreachable, like an
  // unsatisfiable requirement.
  HYPERREC_ENSURE(best[n] < kCostInfinity,
                  "no hypercontext satisfies some requirement at a finite "
                  "cost");

  GeneralSolution solution;
  solution.total = best[n];
  std::vector<std::size_t> starts;
  std::vector<std::size_t> hypers;
  for (std::size_t cursor = n; cursor != 0; cursor = parent[cursor]) {
    starts.push_back(parent[cursor]);
    hypers.push_back(chosen[cursor]);
  }
  std::reverse(starts.begin(), starts.end());
  std::reverse(hypers.begin(), hypers.end());
  solution.schedule = GeneralSchedule{std::move(starts), std::move(hypers)};
  return solution;
}

}  // namespace hyperrec
