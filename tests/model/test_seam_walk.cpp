// The §4.2 walk resumed at seams (detail::walk_fully_sync, model/
// cost_switch.hpp): walking a schedule in pieces, seam to seam, must give
// evaluate_fully_sync_switch's breakdown field by field, and each seam's
// state must be the one-shot breakdown of the steps before it.  The grid
// runs both upload modes, changeover on and off, a public context, and
// private-global quotas (on machines with global resources a seam is also
// a global boundary), with ordinary, near-maximum (max − 1000) and
// negative v_j — where saturation makes the running sums order-sensitive,
// so only a walk that keeps folding them step by step stays bit-identical.
#include "model/cost_switch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "support/cost_math.hpp"
#include "support/rng.hpp"
#include "testutil/trace_builders.hpp"

namespace hyperrec {
namespace {

void expect_identical(const CostBreakdown& actual,
                      const CostBreakdown& expected, const std::string& label) {
  EXPECT_EQ(actual.total, expected.total) << label;
  EXPECT_EQ(actual.hyper, expected.hyper) << label;
  EXPECT_EQ(actual.reconfig, expected.reconfig) << label;
  EXPECT_EQ(actual.global_hyper, expected.global_hyper) << label;
  EXPECT_EQ(actual.partial_hyper_steps, expected.partial_hyper_steps)
      << label;
}

/// Random requirements with private demands up to `max_demand`.
MultiTaskTrace demand_trace(Xoshiro256& rng, std::size_t tasks,
                            std::size_t steps, std::size_t universe,
                            std::uint32_t max_demand) {
  MultiTaskTrace trace;
  for (std::size_t j = 0; j < tasks; ++j) {
    TaskTrace task(universe);
    for (std::size_t i = 0; i < steps; ++i) {
      task.push_back({testutil::random_requirement(rng, universe),
                      static_cast<std::uint32_t>(rng.uniform(max_demand + 1))});
    }
    trace.add_task(std::move(task));
  }
  return trace;
}

/// A random schedule in which every step of `seams` is a seam: each task
/// starts an interval there and, on machines with global resources, a
/// global hyperreconfiguration happens there too (plus a few more global
/// boundaries between the seams).
MultiTaskSchedule schedule_with_seams(Xoshiro256& rng,
                                      const MultiTaskTrace& trace,
                                      const MachineSpec& machine,
                                      const std::vector<std::size_t>& seams) {
  const std::size_t n = trace.steps();
  std::vector<std::size_t> globals;
  if (machine.has_global_resources()) {
    globals.push_back(0);
    for (std::size_t s = 1; s < n; ++s) {
      if (std::binary_search(seams.begin(), seams.end(), s) ||
          rng.flip(0.1)) {
        globals.push_back(s);
      }
    }
  }
  MultiTaskSchedule schedule;
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    DynamicBitset mask(n);
    for (std::size_t s = 1; s < n; ++s) {
      if (rng.flip(0.3)) mask.set(s);
    }
    for (const std::size_t s : seams) mask.set(s);
    for (const std::size_t g : globals) mask.set(g);
    schedule.tasks.push_back(Partition::from_boundary_mask(mask));
  }
  schedule.global_boundaries = std::move(globals);
  return schedule;
}

/// The first s steps of `schedule`, s a seam: a valid schedule over them.
MultiTaskSchedule prefix(const MultiTaskSchedule& schedule, std::size_t s) {
  MultiTaskSchedule out;
  for (const Partition& partition : schedule.tasks) {
    std::vector<std::size_t> starts;
    for (const std::size_t start : partition.starts()) {
      if (start < s) starts.push_back(start);
    }
    out.tasks.push_back(Partition::from_starts(std::move(starts), s));
  }
  for (const std::size_t g : schedule.global_boundaries) {
    if (g < s) out.global_boundaries.push_back(g);
  }
  return out;
}

/// Walks `schedule` seam to seam and checks every piece against the
/// one-shot evaluator.
void expect_pieces_match(const MultiTaskTrace& trace,
                         const MachineSpec& machine,
                         const MultiTaskSchedule& schedule,
                         const EvalOptions& options,
                         const std::vector<std::size_t>& seams,
                         const std::string& label) {
  const CostBreakdown whole =
      evaluate_fully_sync_switch(trace, machine, schedule, options);
  detail::Seam at;
  std::vector<std::size_t> stops = seams;
  stops.push_back(trace.steps());
  for (const std::size_t stop : stops) {
    at = detail::walk_fully_sync(trace, machine, schedule, options, at, stop);
    ASSERT_EQ(at.step, stop) << label;
    if (stop == trace.steps()) break;
    expect_identical(
        at.sums,
        evaluate_fully_sync_switch(trace.slice(0, stop), machine,
                                   prefix(schedule, stop), options),
        label + " seam " + std::to_string(stop));
  }
  expect_identical(at.sums, whole, label + " walked in pieces");
}

std::vector<std::size_t> random_seams(Xoshiro256& rng, std::size_t n) {
  std::vector<std::size_t> seams;
  for (std::size_t s = 1; s < n; ++s) {
    if (rng.flip(0.2)) seams.push_back(s);
  }
  return seams;
}

TEST(SeamWalk, PiecesEqualTheOneShotEvaluatorAcrossTheGrid) {
  Xoshiro256 rng(0x5EA3);
  constexpr Cost kNearMax = std::numeric_limits<Cost>::max() - 1000;
  std::size_t cases = 0;
  for (const std::size_t universe : {1ul, 63ul, 64ul, 65ul, 130ul}) {
    for (const int machine_kind : {0, 1, 2}) {  // local, public, quotas
      for (const int v_kind : {0, 1, 2}) {  // ordinary, max − 1000, negative
        const std::size_t tasks = 1 + rng.uniform(3);
        const std::size_t n = 2 + rng.uniform(23);
        MachineSpec machine = MachineSpec::local_only(
            std::vector<std::size_t>(tasks, universe));
        const MultiTaskTrace trace = demand_trace(
            rng, tasks, n, universe, machine_kind == 2 ? 3 : 0);
        if (machine_kind == 1) {
          machine.public_context_size = 3;
          machine.global_init = 7;
        } else if (machine_kind == 2) {
          machine.private_global_units = 3 * static_cast<std::uint64_t>(tasks);
          machine.global_init = 5;
        }
        if (v_kind == 1) {
          machine.tasks[rng.uniform(tasks)].local_init = kNearMax;
        } else if (v_kind == 2) {
          machine.tasks[0].local_init = -9;
          if (tasks > 1) machine.tasks[1].local_init = kNearMax;
        }
        for (const auto hyper :
             {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
          for (const auto reconfig :
               {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
            for (const bool changeover : {false, true}) {
              const EvalOptions options{hyper, reconfig, changeover};
              for (int draw = 0; draw < 3; ++draw) {
                const std::vector<std::size_t> seams = random_seams(rng, n);
                const MultiTaskSchedule schedule =
                    schedule_with_seams(rng, trace, machine, seams);
                expect_pieces_match(
                    trace, machine, schedule, options, seams,
                    "u" + std::to_string(universe) + " machine " +
                        std::to_string(machine_kind) + " v " +
                        std::to_string(v_kind) + " options " +
                        std::to_string(static_cast<int>(hyper)) +
                        std::to_string(static_cast<int>(reconfig)) +
                        std::to_string(changeover));
                ++cases;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 5u * 3u * 3u * 8u * 3u);
}

TEST(SeamWalk, SaturatedSumsKeepFoldingStepByStep) {
  // Task 0 pays max − 1000 and task 1 pays −5 per hyperreconfiguration,
  // summed per step (task-sequential upload).  The hyper terms are
  // INF − 5, −5, INF − 5, −5 (INF = kCostInfinity), and the saturating
  // step-by-step fold ends at INF − 5.  Summing each half apart and adding
  // the halves would give INF − 10 twice, which saturates to INF instead.
  Xoshiro256 rng(7);
  const MultiTaskTrace trace = testutil::random_multi_trace(rng, 2, 4, 3);
  MachineSpec machine = MachineSpec::local_only({3, 3});
  machine.tasks[0].local_init = std::numeric_limits<Cost>::max() - 1000;
  machine.tasks[1].local_init = -5;
  MultiTaskSchedule schedule;
  schedule.tasks.push_back(Partition::from_starts({0, 2}, 4));
  schedule.tasks.push_back(Partition::from_starts({0, 1, 2, 3}, 4));
  const EvalOptions options{UploadMode::kTaskSequential,
                            UploadMode::kTaskSequential, false};
  const CostBreakdown whole =
      evaluate_fully_sync_switch(trace, machine, schedule, options);
  EXPECT_EQ(whole.hyper, kCostInfinity - 5);
  const detail::Seam half =
      detail::walk_fully_sync(trace, machine, schedule, options, {}, 2);
  EXPECT_EQ(half.sums.hyper, kCostInfinity - 10);
  expect_identical(
      detail::walk_fully_sync(trace, machine, schedule, options, half, 4)
          .sums,
      whole, "resumed at step 2");
}

TEST(SeamWalk, RejectsStepsThatAreNotSeams) {
  Xoshiro256 rng(0xBAD5EA3);
  const MultiTaskTrace trace = testutil::random_multi_trace(rng, 2, 6, 8);
  MachineSpec machine = MachineSpec::local_only({8, 8});
  MultiTaskSchedule schedule;
  schedule.tasks.push_back(Partition::from_starts({0, 2, 4}, 6));
  schedule.tasks.push_back(Partition::from_starts({0, 4}, 6));
  const EvalOptions options{};
  const detail::Seam at4 =
      detail::walk_fully_sync(trace, machine, schedule, options, {}, 4);
  // Step 2 starts an interval in task 0 only.
  EXPECT_THROW((void)detail::walk_fully_sync(trace, machine, schedule, options,
                                             {}, 2),
               PreconditionError);
  detail::Seam at2 = at4;
  at2.step = 2;
  EXPECT_THROW((void)detail::walk_fully_sync(trace, machine, schedule, options,
                                             at2, 6),
               PreconditionError);
  EXPECT_THROW((void)detail::walk_fully_sync(trace, machine, schedule, options,
                                             at4, 7),
               PreconditionError);
  // An empty walk changes nothing.
  EXPECT_EQ(detail::walk_fully_sync(trace, machine, schedule, options, at4, 4)
                .sums.total,
            at4.sums.total);

  // On a machine with global resources a seam needs a global boundary.
  machine.public_context_size = 2;
  schedule.global_boundaries = {0};
  EXPECT_THROW((void)detail::walk_fully_sync(trace, machine, schedule, options,
                                             {}, 4),
               PreconditionError);
  schedule.global_boundaries = {0, 4};
  EXPECT_NO_THROW((void)detail::walk_fully_sync(trace, machine, schedule,
                                                options, {}, 4));

  // A changeover walk resumes with each task's hypercontext.
  machine.public_context_size = 0;
  schedule.global_boundaries.clear();
  const EvalOptions changeover{UploadMode::kTaskParallel,
                               UploadMode::kTaskSequential, true};
  detail::Seam bare = at4;
  bare.hypercontexts.clear();
  EXPECT_THROW((void)detail::walk_fully_sync(trace, machine, schedule,
                                             changeover, bare, 6),
               PreconditionError);
}

TEST(SeamWalk, QuotaCheckCoversTheBlocksOfTheWalkedRange) {
  // Pool 2; task 0 demands 2 on steps 0–1 and task 1 on steps 2–3.  With
  // global boundaries {0, 2} both blocks fit, and each walk checks the
  // block it covers; without the boundary at 2 the one block overflows,
  // and the walk rejects it as the one-shot evaluator does.
  MultiTaskTrace trace;
  for (std::size_t j = 0; j < 2; ++j) {
    TaskTrace task(2);
    for (std::size_t i = 0; i < 4; ++i) {
      task.push_back({DynamicBitset(2), (i < 2) == (j == 0) ? 2u : 0u});
    }
    trace.add_task(std::move(task));
  }
  MachineSpec machine = MachineSpec::local_only({2, 2});
  machine.private_global_units = 2;
  machine.global_init = 3;
  MultiTaskSchedule sealed = MultiTaskSchedule::all_single(2, 4);
  for (Partition& partition : sealed.tasks) {
    partition = Partition::from_starts({0, 2}, 4);
  }
  sealed.global_boundaries = {0, 2};
  const EvalOptions options{};
  expect_pieces_match(trace, machine, sealed, options, {2}, "sealed");

  MultiTaskSchedule open = sealed;
  open.global_boundaries = {0};
  EXPECT_THROW(
      (void)evaluate_fully_sync_switch(trace, machine, open, options),
      PreconditionError);
  EXPECT_THROW((void)detail::walk_fully_sync(trace, machine, open, options, {},
                                             4),
               PreconditionError);
}

}  // namespace
}  // namespace hyperrec
