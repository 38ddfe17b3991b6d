#include "core/implicit_general.hpp"

#include <algorithm>

#include "support/cost_math.hpp"
#include "support/ensure.hpp"

namespace hyperrec {

namespace {

DynamicBitset from_mask(std::uint32_t mask, std::size_t universe) {
  DynamicBitset bits(universe);
  for (std::size_t i = 0; i < universe; ++i) {
    if ((mask >> i) & 1u) bits.set(i);
  }
  return bits;
}

std::uint32_t to_mask(const DynamicBitset& bits) {
  std::uint32_t mask = 0;
  bits.for_each_set([&mask](std::size_t pos) { mask |= 1u << pos; });
  return mask;
}

}  // namespace

ImplicitSolution solve_implicit_general(
    const ImplicitGeneralModel& model,
    const std::vector<DynamicBitset>& sequence) {
  HYPERREC_ENSURE(model.universe <= 20,
                  "implicit general solver capped at |X| <= 20");
  HYPERREC_ENSURE(model.cost && model.init, "cost/init functions required");
  const std::size_t n = sequence.size();
  HYPERREC_ENSURE(n > 0, "empty context sequence");
  for (const DynamicBitset& req : sequence) {
    HYPERREC_ENSURE(req.size() == model.universe,
                    "requirement universe mismatch");
  }
  const std::uint32_t full = (model.universe == 32)
                                 ? ~std::uint32_t{0}
                                 : ((std::uint32_t{1} << model.universe) - 1);

  std::vector<Cost> best(n + 1, kCostInfinity);
  std::vector<std::size_t> parent(n + 1, 0);
  std::vector<std::uint32_t> chosen(n + 1, 0);
  best[0] = 0;

  for (std::size_t end = 1; end <= n; ++end) {
    DynamicBitset needed(model.universe);
    for (std::size_t start = end; start-- > 0;) {
      needed |= sequence[start];
      const std::uint32_t base = to_mask(needed);
      const std::uint32_t spare = full & ~base;
      const Cost len = static_cast<Cost>(end - start);

      // Enumerate all supersets h ⊇ base: h = base | sub, sub ⊆ spare.
      Cost interval_best = kCostInfinity;
      std::uint32_t interval_h = base;
      std::uint32_t sub = spare;
      for (;;) {
        const std::uint32_t h = base | sub;
        const DynamicBitset h_bits = from_mask(h, model.universe);
        const Cost c =
            cost_add(model.init(h_bits), cost_mul(model.cost(h_bits), len));
        if (c < interval_best) {
          interval_best = c;
          interval_h = h;
        }
        if (sub == 0) break;
        sub = (sub - 1) & spare;
      }

      const Cost candidate = cost_add(best[start], interval_best);
      if (candidate < best[end]) {
        best[end] = candidate;
        parent[end] = start;
        chosen[end] = interval_h;
      }
    }
  }

  // Saturated costs (support/cost_math.hpp) never beat the sentinel, so a
  // fully saturated instance has no reconstructible schedule.
  HYPERREC_ENSURE(best[n] < kCostInfinity,
                  "every schedule's cost saturates the Cost range");

  ImplicitSolution solution;
  solution.total = best[n];
  std::vector<std::size_t> starts;
  std::vector<std::uint32_t> hypers;
  for (std::size_t cursor = n; cursor != 0; cursor = parent[cursor]) {
    starts.push_back(parent[cursor]);
    hypers.push_back(chosen[cursor]);
  }
  std::reverse(starts.begin(), starts.end());
  std::reverse(hypers.begin(), hypers.end());
  solution.starts = std::move(starts);
  for (const std::uint32_t h : hypers) {
    solution.hypercontexts.push_back(from_mask(h, model.universe));
  }
  return solution;
}

}  // namespace hyperrec
