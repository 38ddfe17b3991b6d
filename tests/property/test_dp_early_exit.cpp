// Bit-identity of the interval DPs' exact early exit: solve_single_task_switch
// and solve_aligned_dp must return the same totals, partitions and
// hypercontexts as the unpruned reference loops (testutil/reference_dp.hpp)
// on instances where the early exit really fires.  The grid covers every
// workload family up to 512 steps, universes on both sides of one word
// (16, 64, 65, 200, 1024), local-only and private-demand-plus-public-context
// machines, all four upload-mode pairs, and hyperreconfiguration costs from
// 0 through the saturating range (kCostInfinity − 1, Cost max − 1000) to
// negative values, for which the scan does not prune.  Random-walk rows at
// 1024 steps (single task) and 512 (aligned) have the long scans on which
// the union counters take over from the merges, and single_task_switch_cost
// on ranges past step 0 must equal the DP of the sliced trace.
#include <gtest/gtest.h>

#include <limits>

#include "core/aligned_dp.hpp"
#include "core/interval_dp.hpp"
#include "support/cost_math.hpp"
#include "support/rng.hpp"
#include "testutil/reference_dp.hpp"
#include "workload/generators.hpp"

namespace hyperrec {
namespace {

constexpr std::size_t kSingleTaskSteps = 512;
constexpr std::size_t kAlignedSteps = 192;
constexpr std::size_t kTasks = 3;
constexpr std::uint32_t kMaxDemand = 3;

std::vector<Cost> init_costs(std::size_t universe) {
  return {0,
          1,
          static_cast<Cost>(universe),
          kCostInfinity - 1,
          std::numeric_limits<Cost>::max() - 1000,
          -3};
}

/// Copy of `trace` where about a quarter of the steps demand 1..kMaxDemand
/// private-global units.
MultiTaskTrace with_private_demand(const MultiTaskTrace& trace,
                                   Xoshiro256& rng) {
  MultiTaskTrace out;
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    const TaskTrace& task = trace.task(j);
    TaskTrace copy(task.local_universe());
    for (std::size_t l = 0; l < task.size(); ++l) {
      const std::uint32_t demand =
          rng.uniform(4) == 0
              ? 1 + static_cast<std::uint32_t>(rng.uniform(kMaxDemand))
              : 0;
      copy.push_back({task.at(l).local, demand});
    }
    out.add_task(std::move(copy));
  }
  return out;
}

struct Variant {
  MultiTaskTrace trace;
  bool global_resources = false;
};

/// Local-only and private-demand-plus-public-context variants of one
/// family's trace, cut to exactly `steps` steps.
std::vector<Variant> variants(const std::string& family, std::size_t steps,
                              std::size_t universe, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const MultiTaskTrace base =
      workload::make_multi_family(family, kTasks, steps, universe, rng)
          .slice(0, steps);
  std::vector<Variant> out;
  out.push_back({base, false});
  out.push_back({with_private_demand(base, rng), true});
  return out;
}

MachineSpec machine_for(const Variant& variant, std::size_t universe,
                        Cost init) {
  MachineSpec machine =
      MachineSpec::local_only(std::vector<std::size_t>(kTasks, universe));
  for (TaskSpec& task : machine.tasks) task.local_init = init;
  if (variant.global_resources) {
    machine.private_global_units = kTasks * kMaxDemand;
    machine.public_context_size = 5;
    machine.global_init = 7;
  }
  return machine;
}

void expect_same_single_task(const TaskTrace& trace, Cost init,
                             std::size_t& skippable) {
  std::size_t skipped = 0;
  const SingleTaskSolution expected =
      testutil::reference_single_task_switch(trace, init, &skipped);
  const SingleTaskSolution actual = solve_single_task_switch(trace, init);
  EXPECT_EQ(actual.total, expected.total);
  EXPECT_EQ(actual.partition.starts(), expected.partition.starts());
  EXPECT_TRUE(actual.hypercontexts == expected.hypercontexts);
  if (init >= 0) skippable += skipped;
}

class DpEarlyExit : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DpEarlyExit, SingleTaskDpMatchesUnprunedReference) {
  const std::size_t universe = GetParam();
  std::size_t skippable = 0;
  std::uint64_t seed = 100 + universe;
  for (const std::string& family : workload::family_names()) {
    for (const Variant& variant :
         variants(family, kSingleTaskSteps, universe, seed++)) {
      const TaskTrace& task = variant.trace.task(0);
      for (const Cost init : init_costs(universe)) {
        SCOPED_TRACE(family + " v=" + std::to_string(init) +
                     (variant.global_resources ? " private" : " local"));
        expect_same_single_task(task, init, skippable);
        // Short prefixes reach the one- and two-step edge cases.
        for (const std::size_t steps : {1, 2, 17}) {
          expect_same_single_task(task.slice(0, steps), init, skippable);
        }
      }
      // Any negative cost turns the early exit off; this one also drives
      // the partial sums into the −kCostInfinity clamp.
      expect_same_single_task(task, -(kCostInfinity / 8), skippable);
    }
  }
  // The grid must exercise the pruned path, not just agree vacuously.
  EXPECT_GT(skippable, 0u);
}

void expect_same_aligned(const MultiTaskTrace& trace,
                         const MachineSpec& machine,
                         const EvalOptions& options, std::size_t& skippable) {
  const SolveInstance instance(trace, machine, options);
  std::size_t skipped = 0;
  const MTSolution expected =
      testutil::reference_aligned_dp(instance, &skipped);
  const MTSolution actual = solve_aligned_dp(instance);
  EXPECT_EQ(actual.total(), expected.total());
  ASSERT_EQ(actual.schedule.tasks.size(), expected.schedule.tasks.size());
  for (std::size_t j = 0; j < actual.schedule.tasks.size(); ++j) {
    EXPECT_EQ(actual.schedule.tasks[j].starts(),
              expected.schedule.tasks[j].starts());
  }
  EXPECT_EQ(actual.schedule.global_boundaries,
            expected.schedule.global_boundaries);
  if (machine.tasks.front().local_init >= 0) skippable += skipped;
}

TEST_P(DpEarlyExit, AlignedDpMatchesUnprunedReference) {
  const std::size_t universe = GetParam();
  std::size_t skippable = 0;
  std::uint64_t seed = 200 + universe;
  for (const std::string& family : workload::family_names()) {
    for (const Variant& variant :
         variants(family, kAlignedSteps, universe, seed++)) {
      for (const Cost init : init_costs(universe)) {
        const MachineSpec machine = machine_for(variant, universe, init);
        for (const UploadMode hyper :
             {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
          for (const UploadMode reconfig :
               {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
            SCOPED_TRACE(family + " v=" + std::to_string(init) +
                         (variant.global_resources ? " private" : " local") +
                         " hyper=" + std::to_string(static_cast<int>(hyper)) +
                         " reconfig=" +
                         std::to_string(static_cast<int>(reconfig)));
            const EvalOptions options{hyper, reconfig, false};
            expect_same_aligned(variant.trace, machine, options, skippable);
          }
        }
      }
    }
  }
  EXPECT_GT(skippable, 0u);
}

TEST_P(DpEarlyExit, SingleTaskCostInPlaceMatchesTheSlicedTrace) {
  const std::size_t universe = GetParam();
  std::uint64_t seed = 300 + universe;
  for (const std::string& family : workload::family_names()) {
    for (const Variant& variant :
         variants(family, kSingleTaskSteps, universe, seed++)) {
      const TaskTrace& task = variant.trace.task(0);
      for (const Cost init : init_costs(universe)) {
        for (const auto& [lo, hi] :
             {std::pair<std::size_t, std::size_t>{1, 2},
              {37, kSingleTaskSteps},
              {101, 389}}) {
          SCOPED_TRACE(family + " v=" + std::to_string(init) + " [" +
                       std::to_string(lo) + ", " + std::to_string(hi) + ")" +
                       (variant.global_resources ? " private" : " local"));
          EXPECT_EQ(single_task_switch_cost(task, lo, hi, init),
                    solve_single_task_switch(task.slice(lo, hi), init).total);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Universes, DpEarlyExit,
                         ::testing::Values(16, 64, 65, 200, 1024));

// Random-walk's optimal intervals are long, so its scans price many starts
// per end and the union counters answer most of them.
constexpr std::size_t kLongSingleTaskSteps = 1024;
constexpr std::size_t kLongAlignedSteps = 512;

class DpEarlyExitLongScans : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DpEarlyExitLongScans, SingleTaskDpMatchesUnprunedReference) {
  const std::size_t universe = GetParam();
  std::size_t skippable = 0;
  for (const Variant& variant : variants("random-walk", kLongSingleTaskSteps,
                                         universe, 700 + universe)) {
    const TaskTrace& task = variant.trace.task(0);
    for (const Cost init : init_costs(universe)) {
      SCOPED_TRACE("v=" + std::to_string(init) +
                   (variant.global_resources ? " private" : " local"));
      expect_same_single_task(task, init, skippable);
      EXPECT_EQ(single_task_switch_cost(task, 211, kLongSingleTaskSteps, init),
                solve_single_task_switch(
                    task.slice(211, kLongSingleTaskSteps), init)
                    .total);
    }
    expect_same_single_task(task, -(kCostInfinity / 8), skippable);
  }
  EXPECT_GT(skippable, 0u);
}

TEST_P(DpEarlyExitLongScans, AlignedDpMatchesUnprunedReference) {
  const std::size_t universe = GetParam();
  std::size_t skippable = 0;
  for (const Variant& variant : variants("random-walk", kLongAlignedSteps,
                                         universe, 800 + universe)) {
    for (const Cost init : init_costs(universe)) {
      const MachineSpec machine = machine_for(variant, universe, init);
      for (const UploadMode hyper :
           {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
        for (const UploadMode reconfig :
             {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
          SCOPED_TRACE("v=" + std::to_string(init) +
                       (variant.global_resources ? " private" : " local") +
                       " hyper=" + std::to_string(static_cast<int>(hyper)) +
                       " reconfig=" +
                       std::to_string(static_cast<int>(reconfig)));
          const EvalOptions options{hyper, reconfig, false};
          expect_same_aligned(variant.trace, machine, options, skippable);
        }
      }
    }
  }
  EXPECT_GT(skippable, 0u);
}

INSTANTIATE_TEST_SUITE_P(Universes, DpEarlyExitLongScans,
                         ::testing::Values(32, 1024));

}  // namespace
}  // namespace hyperrec
