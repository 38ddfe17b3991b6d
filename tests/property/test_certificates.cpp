// Property suite for optimality certificates (ISSUE 10): on tiny seeded
// fuzz instances from every workload family and random traces,
//
//     lower_bound ≤ exhaustive optimum ≤ hierarchical cost,
//
// the hierarchical cost equals the evaluator's cost for the spliced
// schedule, and the reported gap is exactly
// (total − lower_bound)·100/lower_bound.
#include <gtest/gtest.h>

#include "core/hierarchical.hpp"
#include "core/lower_bound.hpp"
#include "testutil/oracles.hpp"
#include "testutil/trace_builders.hpp"
#include "testutil/workload_instances.hpp"

namespace hyperrec {
namespace {

void check_certificate_bracket(const MultiTaskTrace& trace,
                               const MachineSpec& machine,
                               const EvalOptions& options,
                               const std::string& label) {
  const Cost optimum =
      testutil::brute_force_multi_task(trace, machine, options);
  const SolveInstance instance(trace, machine, options);
  const auto cert = compute_lower_bound(instance);
  ASSERT_LE(cert.bound, optimum) << label << ": unsound lower bound";

  HierarchicalConfig config;
  config.segment = 3;  // force multiple segments on ≥4-step traces
  const auto result = solve_hierarchical(instance, config);

  // Spliced schedule must be exactly what the evaluator charges for it.
  EXPECT_EQ(result.solution.total(),
            evaluate_fully_sync_switch(instance, result.solution.schedule)
                .total)
      << label;
  EXPECT_GE(result.solution.total(), optimum) << label;

  ASSERT_TRUE(result.solution.lower_bound.has_value()) << label;
  const Cost lb = *result.solution.lower_bound;
  EXPECT_EQ(lb, cert.bound) << label;
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
