#include "core/dag_dp.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/interval_dp.hpp"
#include "dag/generators.hpp"
#include "support/rng.hpp"

namespace hyperrec {
namespace {

DagCostModel chain_model() {
  // h0: {k0} cost 1;  h1: {k0,k1} cost 3;  h2: {k0,k1} cost 5.  w = 4.
  Dag dag(3);
  dag.add_edge(0, 1);
  dag.add_edge(1, 2);
  std::vector<DynamicBitset> sat;
  sat.push_back(DynamicBitset::from_string("10"));
  sat.push_back(DynamicBitset::from_string("11"));
  sat.push_back(DynamicBitset::from_string("11"));
  return DagCostModel(std::move(dag), std::move(sat), {1, 3, 5}, 4);
}

TEST(DagDp, PhasedSequenceSplits) {
  const auto model = chain_model();
  const std::vector<std::size_t> sequence{0, 0, 0, 1, 1, 1};
  const auto solution = solve_dag_dp(model, sequence);
  // Split: (4 + 1·3) + (4 + 3·3) = 20; merged: 4 + 3·6 = 22.
  EXPECT_EQ(solution.total, 20);
  EXPECT_EQ(solution.schedule.hypercontexts[0], 0u);
  EXPECT_EQ(solution.schedule.hypercontexts[1], 1u);
}

TEST(DagDp, SolutionEvaluatesToReportedTotal) {
  const auto model = chain_model();
  const std::vector<std::size_t> sequence{0, 1, 0, 0, 1};
  const auto solution = solve_dag_dp(model, sequence);
  EXPECT_EQ(evaluate_dag_model(model, sequence, solution.schedule),
            solution.total);
}

/// Builds the subset-lattice DAG model equivalent to the switch model over
/// `bits` switches: node mask u satisfies requirement kind r (one kind per
/// observed distinct requirement) iff r's switch set ⊆ u; cost = |u| (+1 to
/// honour the DAG model's cost > 0 with an additive shift on both sides).
TEST(DagDp, SubsetLatticeReproducesSwitchDp) {
  Xoshiro256 rng(5);
  const std::size_t bits = 4;
  for (int round = 0; round < 10; ++round) {
    const std::size_t n = 3 + rng.uniform(6);
    // Random switch-model trace.
    TaskTrace trace(bits);
    std::vector<std::uint32_t> req_masks;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t mask = 0;
      DynamicBitset req(bits);
      for (std::size_t s = 0; s < bits; ++s) {
        if (rng.flip(0.4)) {
          req.set(s);
          mask |= 1u << s;
        }
      }
      trace.push_back_local(std::move(req));
      req_masks.push_back(mask);
    }

    // DAG model over the full subset lattice with one kind per step.
    Dag lattice = make_subset_lattice(bits);
    std::vector<DynamicBitset> sat(16, DynamicBitset(n));
    std::vector<Cost> cost(16, 0);
    for (std::size_t h = 0; h < 16; ++h) {
      cost[h] = static_cast<Cost>(std::popcount(static_cast<unsigned>(h))) + 1;
      for (std::size_t i = 0; i < n; ++i) {
        if ((req_masks[i] & ~static_cast<std::uint32_t>(h)) == 0) {
          sat[h].set(i);
        }
      }
    }
    const Cost w = 7;
    DagCostModel model(std::move(lattice), std::move(sat), std::move(cost), w);
    model.validate();

    std::vector<std::size_t> sequence(n);
    for (std::size_t i = 0; i < n; ++i) sequence[i] = i;

    const auto dag_solution = solve_dag_dp(model, sequence);
    // Switch DP with the +1-per-step shift: every step pays exactly one
    // extra unit, so totals differ by exactly n.
    const auto switch_solution = solve_single_task_switch(trace, w);
    EXPECT_EQ(dag_solution.total,
              switch_solution.total + static_cast<Cost>(n))
        << "round " << round;
  }
}

TEST(MtDagAligned, TwoTasksHandComputed) {
  std::vector<DagCostModel> models;
  models.push_back(chain_model());
  models.push_back(chain_model());
  // Task 0 needs k0 throughout; task 1 switches k0 → k1 halfway.
  const std::vector<std::vector<std::size_t>> sequences{{0, 0, 0, 0},
                                                        {0, 0, 1, 1}};
  const Cost w = 2;
  // Task-parallel: split at 2: (2 + max(1,1)·2) + (2 + max(1,3)·2) = 12;
  // merged: 2 + max(1,3)·4 = 14.  Split wins.
  const auto parallel = solve_mt_dag_aligned(models, sequences, w, true);
  EXPECT_EQ(parallel.total, 12);
  ASSERT_EQ(parallel.starts.size(), 2u);
  EXPECT_EQ(parallel.starts[1], 2u);
  EXPECT_EQ(parallel.hypercontexts[1][0], 0u);
  EXPECT_EQ(parallel.hypercontexts[1][1], 1u);

  // Task-sequential: split: (2 + 2·2) + (2 + 4·2) = 16; merged: 2 + 4·4 = 18.
  const auto sequential = solve_mt_dag_aligned(models, sequences, w, false);
  EXPECT_EQ(sequential.total, 16);
}

TEST(MtDagAligned, UnequalLengthsRejected) {
  std::vector<DagCostModel> models;
  models.push_back(chain_model());
  models.push_back(chain_model());
  EXPECT_THROW(solve_mt_dag_aligned(models, {{0, 0}, {0}}, 1, true),
               PreconditionError);
}

TEST(MtDagAligned, ModelSequenceCountMismatchRejected) {
  std::vector<DagCostModel> models;
  models.push_back(chain_model());
  EXPECT_THROW(solve_mt_dag_aligned(models, {{0}, {0}}, 1, true),
               PreconditionError);
}

TEST(DagDp, SaturatedCostsAreRejectedInsteadOfWrapping) {
  Dag dag(2);
  dag.add_edge(0, 1);
  std::vector<DynamicBitset> sat;
  sat.push_back(DynamicBitset::from_string("10"));
  sat.push_back(DynamicBitset::from_string("11"));
  // w near the Cost maximum: see the GeneralDp twin.
  const DagCostModel model(std::move(dag), std::move(sat), {1, 3},
                           std::numeric_limits<Cost>::max() - 10);
  EXPECT_THROW((void)solve_dag_dp(model, {0, 1}), PreconditionError);
}

}  // namespace
}  // namespace hyperrec
