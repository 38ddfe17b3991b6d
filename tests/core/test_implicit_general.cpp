#include "core/implicit_general.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/interval_dp.hpp"
#include "support/rng.hpp"

namespace hyperrec {
namespace {

std::vector<DynamicBitset> random_sequence(std::size_t n, std::size_t universe,
                                           Xoshiro256& rng) {
  std::vector<DynamicBitset> sequence;
  for (std::size_t i = 0; i < n; ++i) {
    DynamicBitset req(universe);
    for (std::size_t s = 0; s < universe; ++s) {
      if (rng.flip(0.4)) req.set(s);
    }
    sequence.push_back(std::move(req));
  }
  return sequence;
}

TEST(ImplicitGeneral, MonotoneCostReducesToSwitchDp) {
  Xoshiro256 rng(3);
  const std::size_t universe = 5;
  const Cost w = 4;
  ImplicitGeneralModel model;
  model.universe = universe;
  model.cost = [](const DynamicBitset& h) {
    return static_cast<Cost>(h.count());
  };
  model.init = [w](const DynamicBitset&) { return w; };

  for (int round = 0; round < 10; ++round) {
    const auto sequence = random_sequence(2 + rng.uniform(7), universe, rng);
    TaskTrace trace(universe);
    for (const auto& req : sequence) trace.push_back_local(req);

    const auto implicit = solve_implicit_general(model, sequence);
    const auto switch_dp = solve_single_task_switch(trace, w);
    EXPECT_EQ(implicit.total, switch_dp.total) << "round " << round;
  }
}

TEST(ImplicitGeneral, NonMonotoneCostBeatsMinimalUnionPolicy) {
  // Cost function with a "sweet spot": sets of exactly 3 switches are very
  // cheap, everything else expensive.  The minimal union of a 1-switch
  // interval costs 10; padding it to 3 switches costs 1.
  ImplicitGeneralModel model;
  model.universe = 4;
  model.cost = [](const DynamicBitset& h) {
    return h.count() == 3 ? Cost{1} : Cost{10};
  };
  model.init = [](const DynamicBitset&) { return Cost{2}; };

  std::vector<DynamicBitset> sequence;
  sequence.push_back(DynamicBitset::from_string("1000"));
  sequence.push_back(DynamicBitset::from_string("1000"));

  const auto solution = solve_implicit_general(model, sequence);
  // One interval with a padded 3-set: 2 + 1·2 = 4.
  EXPECT_EQ(solution.total, 4);
  ASSERT_EQ(solution.hypercontexts.size(), 1u);
  EXPECT_EQ(solution.hypercontexts[0].count(), 3u);
  EXPECT_TRUE(sequence[0].subset_of(solution.hypercontexts[0]));
}

TEST(ImplicitGeneral, HypercontextsAlwaysCoverRequirements) {
  Xoshiro256 rng(11);
  ImplicitGeneralModel model;
  model.universe = 6;
  model.cost = [](const DynamicBitset& h) {
    // Arbitrary non-monotone oscillating cost.
    return static_cast<Cost>((h.count() * 7) % 5 + 1);
  };
  model.init = [](const DynamicBitset& h) {
    return static_cast<Cost>(3 + h.count() % 2);
  };
  const auto sequence = random_sequence(8, 6, rng);
  const auto solution = solve_implicit_general(model, sequence);

  std::vector<std::size_t> bounds = solution.starts;
  bounds.push_back(sequence.size());
  for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
    for (std::size_t i = bounds[k]; i < bounds[k + 1]; ++i) {
      EXPECT_TRUE(sequence[i].subset_of(solution.hypercontexts[k]));
    }
  }
}

TEST(ImplicitGeneral, UniverseCapEnforced) {
  ImplicitGeneralModel model;
  model.universe = 21;
  model.cost = [](const DynamicBitset&) { return Cost{1}; };
  model.init = [](const DynamicBitset&) { return Cost{1}; };
  EXPECT_THROW(solve_implicit_general(model, {DynamicBitset(21)}),
               PreconditionError);
}

TEST(ImplicitGeneral, MissingFunctionsRejected) {
  ImplicitGeneralModel model;
  model.universe = 4;
  EXPECT_THROW(solve_implicit_general(model, {DynamicBitset(4)}),
               PreconditionError);
}

TEST(ImplicitGeneral, RequirementUniverseMismatchRejected) {
  ImplicitGeneralModel model;
  model.universe = 4;
  model.cost = [](const DynamicBitset&) { return Cost{1}; };
  model.init = [](const DynamicBitset&) { return Cost{1}; };
  EXPECT_THROW(solve_implicit_general(model, {DynamicBitset(5)}),
               PreconditionError);
}

TEST(ImplicitGeneral, SaturatedCostsAreRejectedInsteadOfWrapping) {
  ImplicitGeneralModel model;
  model.universe = 3;
  model.cost = [](const DynamicBitset& h) {
    return static_cast<Cost>(h.count());
  };
  model.init = [](const DynamicBitset&) {
    return std::numeric_limits<Cost>::max() / 2;
  };
  const std::vector<DynamicBitset> sequence{DynamicBitset::from_string("100"),
                                            DynamicBitset::from_string("010")};
  EXPECT_THROW((void)solve_implicit_general(model, sequence),
               PreconditionError);
}

}  // namespace
}  // namespace hyperrec
