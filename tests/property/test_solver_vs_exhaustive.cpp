// Every solver in standard_solvers() cross-checked against the exhaustive
// optimum on randomized tiny instances (≤ 3 tasks, ≤ 5 steps) — seeded, so
// the sweep is deterministic.  Heuristics must (a) produce valid schedules,
// (b) report totals that re-evaluate to themselves, and (c) never beat the
// exhaustive optimum; the aligned DP must additionally hit the optimum
// whenever the optimum is achievable by an aligned schedule (m = 1).
#include <gtest/gtest.h>

#include "core/exhaustive.hpp"
#include "core/solver.hpp"
#include "support/rng.hpp"
#include "testutil/trace_builders.hpp"

namespace hyperrec {
namespace {

class SolverVsExhaustive : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverVsExhaustive, NeverBeatsOptimumAndStaysConsistent) {
  Xoshiro256 rng(GetParam());
  for (int round = 0; round < 6; ++round) {
    const std::size_t m = 1 + rng.uniform(3);   // ≤ 3 tasks
    const std::size_t n = 2 + rng.uniform(4);   // ≤ 5 steps
    const std::size_t universe = 3 + rng.uniform(3);
    const auto trace =
        testutil::random_multi_trace(rng, m, n, universe, 0.4);
    const auto machine = MachineSpec::uniform_local(m, universe);
    const EvalOptions options{UploadMode::kTaskParallel,
                              UploadMode::kTaskSequential, false};

    const SolveInstance instance(trace, machine, options);
    const Cost optimum = solve_exhaustive(instance).total();
    for (const NamedSolver& solver : standard_solvers()) {
      const MTSolution solution = solver.solve(instance);
      EXPECT_NO_THROW(solution.schedule.validate(m, n))
          << solver.name << " round " << round;
      EXPECT_EQ(solution.total(),
                evaluate_fully_sync_switch(trace, machine, solution.schedule,
                                           options)
                    .total)
          << solver.name << " round " << round;
      EXPECT_GE(solution.total(), optimum)
          << solver.name << " claims to beat the exhaustive optimum, round "
          << round;
    }
  }
}

TEST_P(SolverVsExhaustive, SingleTaskSolversHitTheOptimum) {
  // With m = 1 every schedule is aligned, so the exact aligned DP must equal
  // the exhaustive optimum (the iterative heuristics may end in local
  // optima even here, so only the DP is held to exactness).
  Xoshiro256 rng(GetParam() * 977 + 5);
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = 2 + rng.uniform(4);
    const std::size_t universe = 3 + rng.uniform(3);
    const auto trace = testutil::random_multi_trace(rng, 1, n, universe, 0.4);
    const auto machine = MachineSpec::uniform_local(1, universe);
    const EvalOptions options{UploadMode::kTaskParallel,
                              UploadMode::kTaskSequential, false};
    const SolveInstance instance(trace, machine, options);
    const Cost optimum = solve_exhaustive(instance).total();
    for (const NamedSolver& solver : standard_solvers()) {
      if (solver.name != "aligned-dp") continue;
      EXPECT_EQ(solver.solve(instance).total(), optimum)
          << solver.name << " round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverVsExhaustive,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

}  // namespace
}  // namespace hyperrec
