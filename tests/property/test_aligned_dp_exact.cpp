// The aligned DP's exact class (aligned_dp_is_exact, proof in
// core/aligned_dp.hpp): inside it the aligned optimum is the optimum over
// all schedules.  Pinned against two independent oracles — exhaustive
// search (m(n−1) ≤ 24) and the Theorem-1 DP (m ≤ 3, n up to 24) — plus the
// certificate's lower bound, and one counterexample per excluded condition
// so the class cannot be widened by accident.
#include <gtest/gtest.h>

#include "core/aligned_dp.hpp"
#include "core/exhaustive.hpp"
#include "core/lower_bound.hpp"
#include "core/theorem1.hpp"
#include "engine/portfolio.hpp"
#include "support/rng.hpp"
#include "testutil/trace_builders.hpp"
#include "workload/generators.hpp"

namespace hyperrec {
namespace {

/// Local-only machine with the given universes and one common v.
MachineSpec common_v_machine(const MultiTaskTrace& trace, Cost v) {
  MachineSpec machine;
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    machine.tasks.push_back(TaskSpec{trace.task(j).local_universe(), v});
  }
  return machine;
}

EvalOptions class_options(UploadMode reconfig) {
  return {UploadMode::kTaskParallel, reconfig, false};
}

class AlignedDpExact : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AlignedDpExact, MatchesExhaustiveUnderBothReconfigModes) {
  Xoshiro256 rng(GetParam());
  for (int round = 0; round < 8; ++round) {
    const std::size_t m = 1 + rng.uniform(3);           // 1..3
    const std::size_t n = 2 + rng.uniform(1 + 10 / m);  // m(n−1) ≤ 13
    // Per-task universes may differ; the class only needs one common v.
    MultiTaskTrace trace;
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t universe = 2 + rng.uniform(4);
      const double density = 0.2 + 0.2 * static_cast<double>(rng.uniform(3));
      trace.add_task(testutil::random_task_trace(rng, n, universe, density));
    }
    const MachineSpec machine =
        common_v_machine(trace, static_cast<Cost>(rng.uniform(9)));
    for (const UploadMode reconfig :
         {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
      const SolveInstance instance(trace, machine, class_options(reconfig));
      ASSERT_TRUE(aligned_dp_is_exact(instance));
      EXPECT_EQ(solve_aligned_dp(instance).total(),
                solve_exhaustive(instance).total())
          << "m=" << m << " n=" << n << " round " << round << " reconfig "
          << static_cast<int>(reconfig);
    }
  }
}

TEST_P(AlignedDpExact, MatchesTheorem1DpPastExhaustiveReach) {
  // The Theorem-1 DP is exact for m ≤ 3 on local-only machines and reaches
  // n = 24, where exhaustive search would enumerate up to 2^69 schedules.
  Xoshiro256 rng(GetParam() * 131 + 7);
  const struct {
    std::size_t m, n, universe;
  } shapes[] = {{1, 24, 6}, {2, 24, 4}, {2, 16, 6}, {3, 12, 3}, {3, 24, 2}};
  for (const auto& shape : shapes) {
    MultiTaskTrace trace;
    for (std::size_t j = 0; j < shape.m; ++j) {
      trace.add_task(
          testutil::random_task_trace(rng, shape.n, shape.universe, 0.35));
    }
    const MachineSpec machine =
        common_v_machine(trace, static_cast<Cost>(1 + rng.uniform(8)));
    for (const UploadMode reconfig :
         {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
      const EvalOptions options = class_options(reconfig);
      const SolveInstance instance(trace, machine, options);
      ASSERT_TRUE(aligned_dp_is_exact(instance));
      EXPECT_EQ(solve_aligned_dp(instance).total(),
                solve_theorem1_dp(trace, machine, options).total())
          << "m=" << shape.m << " n=" << shape.n << " reconfig "
          << static_cast<int>(reconfig);
    }
  }
}

TEST_P(AlignedDpExact, LowerBoundNeverExceedsTheFastPathTotal) {
  // Serving-shaped instances: equal universes, local_only machines.
  Xoshiro256 rng(GetParam() * 977 + 3);
  const std::vector<std::string>& kinds = workload::family_names();
  for (const std::string& kind : kinds) {
    const std::size_t tasks = 1 + rng.uniform(4);
    const std::size_t steps = 16 + rng.uniform(48);
    const std::size_t universe = 8 + rng.uniform(24);
    const MultiTaskTrace trace =
        workload::make_multi_family(kind, tasks, steps, universe, rng);
    std::vector<std::size_t> universes;
    for (std::size_t j = 0; j < trace.task_count(); ++j) {
      universes.push_back(trace.task(j).local_universe());
    }
    for (const UploadMode reconfig :
         {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
      const SolveInstance instance(trace, MachineSpec::local_only(universes),
                                   class_options(reconfig));
      ASSERT_TRUE(aligned_dp_is_exact(instance)) << kind;
      engine::PortfolioConfig config;
      config.parallel = false;
      config.certify = true;
      const engine::PortfolioResult result =
          engine::solve_portfolio(instance, config);
      EXPECT_EQ(result.winner, "aligned-dp") << kind;
      EXPECT_LE(compute_lower_bound(instance).bound, result.best.total())
          << kind;
      EXPECT_EQ(result.best.lower_bound, result.best.total()) << kind;
      EXPECT_EQ(result.best.gap_pct, 0.0) << kind;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlignedDpExact,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

/// Task A's requirements change every step, task B's never do: A wants a
/// boundary at every step, B wants one interval.
MultiTaskTrace restless_and_steady() {
  return MultiTaskTrace::from_local(
      {4, 1}, {{DynamicBitset::from_string("1000"),
                DynamicBitset::from_string("0100"),
                DynamicBitset::from_string("0010"),
                DynamicBitset::from_string("0001")},
               {DynamicBitset::from_string("1"), DynamicBitset::from_string("1"),
                DynamicBitset::from_string("1"),
                DynamicBitset::from_string("1")}});
}

TEST(AlignedDpExactClass, UnequalInitCostsLeaveTheClass) {
  // v_A = 1, v_B = 100.  Unaligned, A's boundaries cost max(1) = 1 each;
  // aligned, every boundary also hyperreconfigures B and costs 100.
  const MultiTaskTrace trace = restless_and_steady();
  MachineSpec machine = MachineSpec::local_only({4, 1});
  machine.tasks[0].local_init = 1;
  machine.tasks[1].local_init = 100;
  const SolveInstance instance(trace, machine);
  EXPECT_FALSE(aligned_dp_is_exact(instance));
  const Cost aligned = solve_aligned_dp(instance).total();
  const Cost optimum = solve_exhaustive(instance).total();
  EXPECT_GT(aligned, optimum);
  EXPECT_EQ(optimum, 111) << "B once (100), A at steps 1..3 (3), 4·(1+1)";

  // The same trace with one common v is back in the class.
  machine.tasks[1].local_init = 1;
  const SolveInstance equal(trace, machine);
  EXPECT_TRUE(aligned_dp_is_exact(equal));
  EXPECT_EQ(solve_aligned_dp(equal).total(), solve_exhaustive(equal).total());
}

TEST(AlignedDpExactClass, TaskSequentialHyperUploadLeavesTheClass) {
  // v = 1 for both tasks, but task-sequential hyper upload charges each
  // task at a boundary: aligned boundaries pay 2, A's own boundaries 1.
  const MultiTaskTrace trace = restless_and_steady();
  MachineSpec machine = MachineSpec::local_only({4, 1});
  for (TaskSpec& task : machine.tasks) task.local_init = 1;
  const SolveInstance instance(
      trace, machine,
      {UploadMode::kTaskSequential, UploadMode::kTaskSequential, false});
  EXPECT_FALSE(aligned_dp_is_exact(instance));
  const Cost aligned = solve_aligned_dp(instance).total();
  const Cost optimum = solve_exhaustive(instance).total();
  EXPECT_GT(aligned, optimum);
  EXPECT_EQ(optimum, 13) << "step 0 pays 2, steps 1..3 pay 1, 4·(1+1)";

  // The same instance under task-parallel hyper upload is back in the class.
  const SolveInstance parallel(trace, machine);
  EXPECT_TRUE(aligned_dp_is_exact(parallel));
  EXPECT_EQ(solve_aligned_dp(parallel).total(),
            solve_exhaustive(parallel).total());
}

}  // namespace
}  // namespace hyperrec
