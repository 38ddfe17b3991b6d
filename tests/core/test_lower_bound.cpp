#include "core/lower_bound.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/interval_dp.hpp"
#include "core/solver.hpp"
#include "support/cost_math.hpp"
#include "testutil/oracles.hpp"
#include "testutil/trace_builders.hpp"
#include "testutil/workload_instances.hpp"

namespace hyperrec {
namespace {

const EvalOptions kModeGrid[] = {
    {UploadMode::kTaskParallel, UploadMode::kTaskSequential, false},
    {UploadMode::kTaskSequential, UploadMode::kTaskSequential, false},
    {UploadMode::kTaskParallel, UploadMode::kTaskParallel, false},
    {UploadMode::kTaskSequential, UploadMode::kTaskParallel, false},
};

TEST(LowerBound, ExactForSingleTaskLocalOnly) {
  const auto trace = testutil::trace_from_strings(
      {"1100", "1100", "0011", "0011", "0110"});
  MultiTaskTrace multi;
  multi.add_task(trace);
  const MachineSpec machine = MachineSpec::local_only({4});
  const SolveInstance instance(multi, machine);
  const Cost optimum =
      testutil::brute_force_single_task(trace, machine.tasks[0].local_init);
  const auto cert = compute_lower_bound(instance);
  EXPECT_EQ(cert.bound, optimum)
      << "single task, sequential reconfig: the DP relaxation is exact";
}

TEST(LowerBound, NeverExceedsExhaustiveOptimumAcrossFamiliesAndModes) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const auto& wl : testutil::seeded_workload_instances(2, 6, 4, seed)) {
      for (const EvalOptions& options : kModeGrid) {
        const Cost optimum =
            testutil::brute_force_multi_task(wl.trace, wl.machine, options);
        const SolveInstance instance(wl.trace, wl.machine, options);
        const auto cert = compute_lower_bound(instance);
        EXPECT_LE(cert.bound, optimum)
            << wl.name << " seed " << seed << " hyper "
            << static_cast<int>(options.hyper_upload) << " reconfig "
            << static_cast<int>(options.reconfig_upload);
        EXPECT_LE(cert.per_step_bound, optimum) << wl.name;
        EXPECT_LE(cert.dp_relaxation_bound, optimum) << wl.name;
      }
    }
  }
}

TEST(LowerBound, SoundUnderChangeover) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Xoshiro256 rng(seed);
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

TEST(LowerBound, ChunkingWeakensButStaysSound) {
  Xoshiro256 rng(99);
  const auto trace = testutil::random_multi_trace(rng, 2, 12, 5);
  const MachineSpec machine = MachineSpec::local_only({5, 5});
  const SolveInstance instance(trace, machine);
  LowerBoundConfig full;   // auto: exact DP at this size
  LowerBoundConfig tiny;
  tiny.chunk = 3;
  const Cost full_bound = compute_lower_bound(instance, full).bound;
  const Cost tiny_bound = compute_lower_bound(instance, tiny).bound;
  EXPECT_LE(tiny_bound, full_bound);
  const Cost optimum = testutil::brute_force_multi_task(trace, machine, {});
  EXPECT_LE(full_bound, optimum);
  EXPECT_GT(tiny_bound, 0);
}

TEST(LowerBound, GlobalResourcesAddExactlyOneGlobalInit) {
  const auto trace = testutil::phased_pair();
  MachineSpec with = MachineSpec::uniform_local(2, 4);
  with.private_global_units = 4;
  with.global_init = 7;
  MachineSpec without = with;
  without.global_init = 0;
  const SolveInstance instance_with(trace, with);
  const SolveInstance instance_without(trace, without);
  EXPECT_EQ(compute_lower_bound(instance_with).bound,
            compute_lower_bound(instance_without).bound + 7);
}

TEST(LowerBound, NearMaximumInitCostSaturatesInsteadOfWrapping) {
  // v_j = max − 1000: the single-interval schedule's total saturates at
  // kCostInfinity, so every sum in the bound must saturate too.  Plain sums
  // wrapped the per-step bound negative and certified a bound above the
  // cost it bounds.
  for (const std::size_t m : {2, 3}) {
    Xoshiro256 rng(m);
    const auto trace = testutil::random_multi_trace(rng, m, 6, 4);
    MachineSpec machine =
        MachineSpec::local_only(std::vector<std::size_t>(m, 4));
    for (TaskSpec& task : machine.tasks) {
      task.local_init = std::numeric_limits<Cost>::max() - 1000;
    }
    for (const EvalOptions& options : kModeGrid) {
      const SolveInstance instance(trace, machine, options);
      const Cost total =
          make_solution(instance, MultiTaskSchedule::all_single(m, 6)).total();
      ASSERT_EQ(total, kCostInfinity);
      const auto cert = compute_lower_bound(instance);
      const std::string where =
          std::to_string(m) + " tasks, hyper " +
          std::to_string(static_cast<int>(options.hyper_upload)) +
          " reconfig " +
          std::to_string(static_cast<int>(options.reconfig_upload));
      EXPECT_LE(cert.bound, total) << where;
      EXPECT_GE(cert.per_step_bound, 0) << where;
      EXPECT_LE(cert.per_step_bound, total) << where;
      EXPECT_GE(cert.dp_relaxation_bound, 0) << where;
      EXPECT_LE(cert.dp_relaxation_bound, total) << where;
    }
  }
}

TEST(LowerBound, GapArithmetic) {
  EXPECT_EQ(certified_gap_pct(150, 100), std::optional<double>(50.0));
  EXPECT_EQ(certified_gap_pct(100, 100), std::optional<double>(0.0));
  EXPECT_EQ(certified_gap_pct(99, 100), std::optional<double>(0.0));
  EXPECT_EQ(certified_gap_pct(0, 0), std::optional<double>(0.0));
  EXPECT_EQ(certified_gap_pct(5, 0), std::nullopt);
  const auto third = certified_gap_pct(400, 300);
  ASSERT_TRUE(third.has_value());
  EXPECT_DOUBLE_EQ(*third, 100.0 * 100.0 / 300.0);
}

TEST(LowerBound, AttachCertificateStampsSolution) {
  const auto trace = testutil::phased_pair();
  const MachineSpec machine = MachineSpec::local_only({4, 4});
  const SolveInstance instance(trace, machine);
  MTSolution solution = make_solution(
      instance,
      MultiTaskSchedule::all_single(instance.task_count(), instance.steps()));
  EXPECT_FALSE(solution.lower_bound.has_value());
  attach_certificate(instance, solution);
  ASSERT_TRUE(solution.lower_bound.has_value());
  ASSERT_TRUE(solution.gap_pct.has_value());
  EXPECT_LE(*solution.lower_bound, solution.total());
  EXPECT_EQ(*solution.gap_pct,
            *certified_gap_pct(solution.total(), *solution.lower_bound));
}

}  // namespace
}  // namespace hyperrec
