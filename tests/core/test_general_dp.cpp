#include "core/general_dp.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "support/rng.hpp"
#include "testutil/oracles.hpp"

namespace hyperrec {
namespace {

GeneralCostModel sample_model() {
  // h0: {k0} init 5 cost 1;  h1: {k1} init 5 cost 2;  h2: {k0,k1} init 8
  // cost 4 (universal).
  GeneralCostModel model(3, 2);
  model.set_init(0, 5);
  model.set_cost(0, 1);
  model.set_satisfies(0, 0);
  model.set_init(1, 5);
  model.set_cost(1, 2);
  model.set_satisfies(1, 1);
  model.set_init(2, 8);
  model.set_cost(2, 4);
  model.set_satisfies(2, 0);
  model.set_satisfies(2, 1);
  return model;
}

using testutil::brute_force_general;

TEST(GeneralDp, PhasedSequenceUsesSpecialisedHypercontexts) {
  const auto model = sample_model();
  const std::vector<std::size_t> sequence{0, 0, 0, 1, 1, 1};
  const auto solution = solve_general_dp(model, sequence);
  // Split: (5 + 1·3) + (5 + 2·3) = 19 beats universal 8 + 4·6 = 32.
  EXPECT_EQ(solution.total, 19);
  ASSERT_EQ(solution.schedule.hypercontexts.size(), 2u);
  EXPECT_EQ(solution.schedule.hypercontexts[0], 0u);
  EXPECT_EQ(solution.schedule.hypercontexts[1], 1u);
}

TEST(GeneralDp, AlternatingSequencePrefersUniversal) {
  const auto model = sample_model();
  const std::vector<std::size_t> sequence{0, 1, 0, 1};
  const auto solution = solve_general_dp(model, sequence);
  // Universal single interval: 8 + 4·4 = 24; per-step specialised:
  // (5+1)+(5+2)+(5+1)+(5+2) = 26.  Universal wins.
  EXPECT_EQ(solution.total, 24);
}

TEST(GeneralDp, MatchesBruteForceOnRandomSequences) {
  Xoshiro256 rng(31);
  for (int round = 0; round < 30; ++round) {
    // Random model over 3 kinds / 5 hypercontexts with a universal one.
    GeneralCostModel model(5, 3);
    for (std::size_t h = 0; h < 5; ++h) {
      model.set_init(h, static_cast<Cost>(1 + rng.uniform(10)));
      model.set_cost(h, static_cast<Cost>(1 + rng.uniform(6)));
      for (std::size_t k = 0; k < 3; ++k) {
        if (rng.flip(0.5)) model.set_satisfies(h, k);
      }
    }
    for (std::size_t k = 0; k < 3; ++k) model.set_satisfies(4, k);

    const std::size_t n = 2 + rng.uniform(7);
    std::vector<std::size_t> sequence(n);
    for (auto& kind : sequence) kind = rng.uniform(3);

    const auto solution = solve_general_dp(model, sequence);
    EXPECT_EQ(solution.total, brute_force_general(model, sequence))
        << "round " << round;
    EXPECT_EQ(evaluate_general(model, sequence, solution.schedule),
              solution.total);
  }
}

TEST(GeneralDp, UnsatisfiableSequenceThrows) {
  GeneralCostModel model(1, 2);
  model.set_satisfies(0, 0);
  model.set_cost(0, 1);
  EXPECT_THROW(solve_general_dp(model, {1}), PreconditionError);
}

TEST(GeneralDp, OutOfRangeKindRejected) {
  const auto model = sample_model();
  EXPECT_THROW(solve_general_dp(model, {5}), PreconditionError);
}

TEST(GeneralDp, EmptySequenceRejected) {
  const auto model = sample_model();
  EXPECT_THROW(solve_general_dp(model, {}), PreconditionError);
}

TEST(GeneralDp, SaturatedCostsAreRejectedInsteadOfWrapping) {
  // An init near the Cost maximum made init + cost·len overflow (UB) and
  // wrap negative, so the DP "preferred" the corrupted interval.
  // Saturating arithmetic treats costs past the sentinel as unreachable,
  // so the DP refuses the instance instead.
  GeneralCostModel model = sample_model();
  for (std::size_t h = 0; h < 3; ++h) {
    model.set_init(h, std::numeric_limits<Cost>::max() - 1);
  }
  EXPECT_THROW((void)solve_general_dp(model, {0, 1}), PreconditionError);
}

}  // namespace
}  // namespace hyperrec
