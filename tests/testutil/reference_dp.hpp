// Unpruned reference copies of the production interval DPs.
//
// solve_single_task_switch (core/interval_dp.cpp) and solve_aligned_dp
// (core/aligned_dp.cpp) stop scanning interval starts once no earlier start
// can beat the incumbent (the early-exit proof is in core/interval_dp.hpp).
// These references keep the plain loops that price every start of every
// interval, with the same saturating arithmetic and the same strict `<`
// tie-breaking, so tests can check that the production DPs return
// bit-identical totals and partitions.
//
// The loops only observe the early-exit rule: when `skippable` is non-null
// it receives the number of (end, start) pairs the rule skips (the
// production scan applies it when the hyper term is non-negative), so a
// test can show that its instances really reach the pruned path.
#pragma once

#include "core/interval_dp.hpp"
#include "core/solver.hpp"

namespace hyperrec::testutil {

/// solve_single_task_switch without the early exit (both the one-word and
/// the multi-word loop).
[[nodiscard]] SingleTaskSolution reference_single_task_switch(
    const TaskTrace& trace, Cost hyper_init,
    std::size_t* skippable = nullptr);

/// solve_aligned_dp without the early exit.
[[nodiscard]] MTSolution reference_aligned_dp(
    const SolveInstance& instance, std::size_t* skippable = nullptr);

}  // namespace hyperrec::testutil
