// Differential testing of the §4.2 evaluator against an independent,
// deliberately naive re-implementation.  The production evaluator walks the
// steps with interval cursors, its interval facts coming either from one
// pass over the trace (both public overloads) or from the instance's
// interval tables (detail::evaluate_fully_sync); the reference recomputes
// everything from first principles per step.  Any divergence on random
// (trace, schedule, options) triples is a bug in one of them.
#include <gtest/gtest.h>

#include "model/cost_switch.hpp"
#include "model/instance.hpp"
#include "support/rng.hpp"
#include "testutil/reference_eval.hpp"
#include "testutil/trace_builders.hpp"
#include "workload/generators.hpp"

namespace hyperrec {
namespace {

using testutil::reference_fully_sync;
using testutil::reference_fully_sync_breakdown;

/// `trace` with a random private demand of 0..3 units on every step.
MultiTaskTrace with_private_demand(const MultiTaskTrace& trace,
                                   Xoshiro256& rng) {
  MultiTaskTrace out;
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    TaskTrace task(trace.task(j).local_universe());
    for (std::size_t i = 0; i < trace.task(j).size(); ++i) {
      task.push_back({trace.task(j).at(i).local,
                      static_cast<std::uint32_t>(rng.uniform(4))});
    }
    out.add_task(std::move(task));
  }
  return out;
}

/// Adds global hyperreconfigurations after step 0, each with the local
/// boundary it needs in every task.
void add_global_boundaries(MultiTaskSchedule& schedule, std::size_t n,
                           Xoshiro256& rng) {
  for (std::size_t l = 1; l < n; ++l) {
    if (!rng.flip(0.2)) continue;
    schedule.global_boundaries.push_back(l);
    for (Partition& partition : schedule.tasks) {
      DynamicBitset mask = partition.to_boundary_mask();
      mask.set(l);
      partition = Partition::from_boundary_mask(mask);
    }
  }
}

void expect_breakdowns_equal(const CostBreakdown& actual,
                             const CostBreakdown& expected,
                             const std::string& label) {
  EXPECT_EQ(actual.total, expected.total) << label;
  EXPECT_EQ(actual.hyper, expected.hyper) << label;
  EXPECT_EQ(actual.reconfig, expected.reconfig) << label;
  EXPECT_EQ(actual.global_hyper, expected.global_hyper) << label;
  EXPECT_EQ(actual.partial_hyper_steps, expected.partial_hyper_steps) << label;
}

class ReferenceEvaluator : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReferenceEvaluator, AgreesOnRandomInstances) {
  Xoshiro256 rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    const std::size_t m = 1 + rng.uniform(4);
    const std::size_t n = 3 + rng.uniform(20);

    workload::MultiPhasedConfig config;
    config.tasks = m;
    config.task_config.steps = n;
    config.task_config.universe = 4 + rng.uniform(8);
    MultiTaskTrace trace =
        workload::make_multi_phased(config, GetParam() * 131 + round);
    MachineSpec machine =
        MachineSpec::uniform_local(m, config.task_config.universe);
    if (rng.flip(0.5)) {
      machine.public_context_size = 1 + rng.uniform(5);
      machine.global_init = static_cast<Cost>(rng.uniform(20));
    }
    if (rng.flip(0.5)) {
      // A pool that fits every block: the quota rule itself is pinned by
      // FullySyncSwitch.QuotaViolationThrowsTheSameMessageOnBothPaths.
      trace = with_private_demand(trace, rng);
      machine.private_global_units = 3 * m;
      machine.global_init = static_cast<Cost>(rng.uniform(20));
    }

    MultiTaskSchedule schedule =
        testutil::random_schedule(rng, trace, machine, 0.25);
    if (machine.has_global_resources()) {
      add_global_boundaries(schedule, n, rng);
    }

    for (const auto hyper :
         {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
      for (const auto reconfig :
           {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
        for (const bool changeover : {false, true}) {
          const EvalOptions options{hyper, reconfig, changeover};
          const std::string label =
              "m=" + std::to_string(m) + " n=" + std::to_string(n) +
              " round=" + std::to_string(round) +
              " pool=" + std::to_string(machine.private_global_units) +
              " globals=" + std::to_string(schedule.global_boundaries.size());
          const CostBreakdown expected =
              reference_fully_sync_breakdown(trace, machine, schedule, options);
          EXPECT_EQ(reference_fully_sync(trace, machine, schedule, options),
                    expected.total)
              << label;
          const SolveInstance instance(trace, machine, options);
          expect_breakdowns_equal(
              evaluate_fully_sync_switch(trace, machine, schedule, options),
              expected, label + " trace overload");
          expect_breakdowns_equal(
              evaluate_fully_sync_switch(instance, schedule), expected,
              label + " instance overload");
          expect_breakdowns_equal(
              detail::evaluate_fully_sync(trace, instance.stats(), machine,
                                          schedule, options),
              expected, label + " tables");
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceEvaluator,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace hyperrec
