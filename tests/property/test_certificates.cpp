// Property suite for optimality certificates: on tiny seeded fuzz
// instances from every workload family and random traces, the hierarchical
// cost equals the evaluator's cost for the spliced schedule, and
//
//   * where the default portfolio is exact (engine::portfolio_is_exact),
//     hierarchical cost == exhaustive optimum == lower_bound, gap 0;
//   * with a line-up that lacks aligned-dp, on every instance,
//     lower_bound == compute_lower_bound ≤ exhaustive optimum ≤ cost, and
//     the reported gap is exactly (total − lower_bound)·100/lower_bound.
#include <gtest/gtest.h>

#include "core/hierarchical.hpp"
#include "core/lower_bound.hpp"
#include "testutil/oracles.hpp"
#include "testutil/trace_builders.hpp"
#include "testutil/workload_instances.hpp"

namespace hyperrec {
namespace {

/// Every standard_solvers() member except aligned-dp: a line-up that is
/// never exact, so solve_hierarchical segments and certifies by relaxation.
std::vector<std::string> racing_line_up() {
  std::vector<std::string> names;
  for (const NamedSolver& solver : standard_solvers()) {
    if (solver.name != "aligned-dp") names.push_back(solver.name);
  }
  return names;
}

/// Solves `instance` hierarchically with `solvers` (empty: the default
/// line-up) and checks the schedule against the evaluator and the optimum.
HierarchicalResult solve_checked(const SolveInstance& instance,
                                 std::vector<std::string> solvers,
                                 Cost optimum, const std::string& label) {
  HierarchicalConfig config;
  config.segment = 3;  // force multiple segments on ≥4-step traces
  config.portfolio.solvers = std::move(solvers);
  HierarchicalResult result = solve_hierarchical(instance, config);
  // Spliced schedule must be exactly what the evaluator charges for it.
  EXPECT_EQ(result.solution.total(),
            evaluate_fully_sync_switch(instance, result.solution.schedule)
                .total)
      << label;
  EXPECT_GE(result.solution.total(), optimum) << label;
  return result;
}

/// lower_bound == compute_lower_bound ≤ optimum, and the exact gap.
void check_relaxation_bracket(const HierarchicalResult& result, Cost bound,
                              Cost optimum, const std::string& label) {
  ASSERT_TRUE(result.solution.lower_bound.has_value()) << label;
  const Cost lb = *result.solution.lower_bound;
  EXPECT_EQ(lb, bound) << label;
  EXPECT_LE(lb, optimum) << label;
  if (lb > 0) {
    ASSERT_TRUE(result.solution.gap_pct.has_value()) << label;
    const double expected =
        result.solution.total() <= lb
            ? 0.0
            : static_cast<double>(result.solution.total() - lb) * 100.0 /
                  static_cast<double>(lb);
    EXPECT_DOUBLE_EQ(*result.solution.gap_pct, expected) << label;
  }
}

void check_certificate_bracket(const MultiTaskTrace& trace,
                               const MachineSpec& machine,
                               const EvalOptions& options,
                               const std::string& label) {
  const Cost optimum =
      testutil::brute_force_multi_task(trace, machine, options);
  const SolveInstance instance(trace, machine, options);
  const auto cert = compute_lower_bound(instance);
  ASSERT_LE(cert.bound, optimum) << label << ": unsound lower bound";

  // Default line-up: where it is exact the answer is the optimum, flat, and
  // certifies itself; elsewhere it segments and carries the relaxation.
  const auto result = solve_checked(instance, {}, optimum, label);
  if (engine::portfolio_is_exact(instance, engine::PortfolioConfig{})) {
    EXPECT_EQ(result.segments, 1u) << label;
    EXPECT_EQ(result.solution.total(), optimum) << label;
    EXPECT_EQ(result.solution.lower_bound, result.solution.total()) << label;
    EXPECT_EQ(result.solution.gap_pct, 0.0) << label;
  } else {
    check_relaxation_bracket(result, cert.bound, optimum, label);
  }

  // Without aligned-dp every instance segments, so the relaxation bracket
  // is covered on every family and mode.
  engine::PortfolioConfig racing;
  racing.solvers = racing_line_up();
  ASSERT_FALSE(engine::portfolio_is_exact(instance, racing)) << label;
  check_relaxation_bracket(
      solve_checked(instance, racing.solvers, optimum, label + "/racing"),
      cert.bound, optimum, label + "/racing");
}

TEST(Certificates, BracketHoldsOnEveryWorkloadFamily) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const auto& wl : testutil::seeded_workload_instances(2, 6, 4, seed)) {
      check_certificate_bracket(wl.trace, wl.machine, {},
                                wl.name + "/" + std::to_string(seed));
    }
  }
}

TEST(Certificates, BracketHoldsAcrossUploadModes) {
  const EvalOptions modes[] = {
      {UploadMode::kTaskParallel, UploadMode::kTaskSequential, false},
      {UploadMode::kTaskSequential, UploadMode::kTaskSequential, false},
      {UploadMode::kTaskParallel, UploadMode::kTaskParallel, false},
      {UploadMode::kTaskSequential, UploadMode::kTaskParallel, false},
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Xoshiro256 rng(seed * 77 + 5);
    const auto trace = testutil::random_multi_trace(rng, 2, 7, 4);
    const MachineSpec machine = MachineSpec::local_only({4, 4});
    for (const EvalOptions& options : modes) {
      check_certificate_bracket(
          trace, machine, options,
          "random/" + std::to_string(seed) + "/mode" +
              std::to_string(static_cast<int>(options.hyper_upload)) +
              std::to_string(static_cast<int>(options.reconfig_upload)));
    }
  }
}

TEST(Certificates, BoundSoundOnChangeoverInstances) {
  // solve_hierarchical declines changeover, but the bound itself must stay
  // sound there (the batch engine certifies changeover jobs too).
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Xoshiro256 rng(seed + 400);
    const auto trace = testutil::random_multi_trace(rng, 2, 5, 4);
    const MachineSpec machine = MachineSpec::local_only({4, 4});
    EvalOptions options;
    options.changeover = true;
    const Cost optimum =
        testutil::brute_force_multi_task(trace, machine, options);
    const SolveInstance instance(trace, machine, options);
    EXPECT_LE(compute_lower_bound(instance).bound, optimum) << seed;
  }
}

}  // namespace
}  // namespace hyperrec
