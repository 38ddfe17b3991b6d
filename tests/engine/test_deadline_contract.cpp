// Deadline contracts: a solver interrupted by its CancelToken must still
// hand back a feasible schedule whose stored breakdown matches a fresh
// re-evaluation — never a torn incumbent.
#include <gtest/gtest.h>

#include <chrono>

#include "core/aligned_dp.hpp"
#include "core/annealing.hpp"
#include "core/coordinate_descent.hpp"
#include "core/genetic.hpp"
#include "engine/portfolio.hpp"
#include "testutil/workload_instances.hpp"

namespace hyperrec {
namespace {

using engine::PortfolioConfig;
using engine::PortfolioResult;
using engine::solve_portfolio;
using testutil::seeded_workload_instances;
using testutil::WorkloadInstance;

std::vector<WorkloadInstance> contract_instances() {
  return seeded_workload_instances(3, 32, 14, 0xDEAD11);
}

/// Feasibility + consistency: the schedule validates against the instance
/// shape and re-evaluating it reproduces the stored breakdown exactly.
void expect_untorn(const WorkloadInstance& instance, const MTSolution& solution,
                   const EvalOptions& options, const std::string& label) {
  ASSERT_NO_THROW(solution.schedule.validate(instance.trace.task_count(),
                                             instance.trace.steps()))
      << label;
  const MTSolution check =
      make_solution(SolveInstance(instance.trace, instance.machine, options),
                    solution.schedule);
  EXPECT_EQ(check.breakdown.total, solution.breakdown.total) << label;
  EXPECT_EQ(check.breakdown.hyper, solution.breakdown.hyper) << label;
  EXPECT_EQ(check.breakdown.reconfig, solution.breakdown.reconfig) << label;
  EXPECT_EQ(check.breakdown.global_hyper, solution.breakdown.global_hyper)
      << label;
}

TEST(DeadlineContract, AnnealingWithExpiredTokenReturnsUntornIncumbent) {
  for (const WorkloadInstance& instance : contract_instances()) {
    SaConfig config;
    config.cancel = CancelToken::expired();
    const SolveInstance problem(instance.trace, instance.machine);
    const MTSolution solution = solve_annealing(problem, config);
    expect_untorn(instance, solution, {}, "annealing/" + instance.name);
  }
}

TEST(DeadlineContract, GeneticWithExpiredTokenReturnsUntornIncumbent) {
  for (const WorkloadInstance& instance : contract_instances()) {
    GaConfig config;
    config.cancel = CancelToken::expired();
    const SolveInstance problem(instance.trace, instance.machine);
    const MTSolution solution = solve_genetic(problem, config).best;
    expect_untorn(instance, solution, {}, "genetic/" + instance.name);
  }
}

TEST(DeadlineContract, CoordinateDescentWithExpiredTokenReturnsUntornIncumbent) {
  for (const WorkloadInstance& instance : contract_instances()) {
    CoordinateDescentConfig config;
    config.cancel = CancelToken::expired();
    const SolveInstance problem(instance.trace, instance.machine);
    const MTSolution solution = solve_coordinate_descent(problem, config);
    expect_untorn(instance, solution,
                  {}, "coord-descent/" + instance.name);
  }
}

TEST(DeadlineContract, EveryRegistrySolverSurvivesAnExpiredToken) {
  const WorkloadInstance instance = contract_instances()[0];
  const SolveInstance problem(instance.trace, instance.machine);
  for (const NamedSolver& solver : standard_solvers()) {
    const MTSolution solution = solver.solve(problem, CancelToken::expired());
    expect_untorn(instance, solution, {}, solver.name);
  }
}

TEST(DeadlineContract, MidRunExpiryNeverTearsTheIncumbent) {
  // A token that fires while the solver is iterating (not before, not
  // after) is the interesting race; sweep a few budgets to move the expiry
  // point around.
  const WorkloadInstance instance = contract_instances()[0];
  const SolveInstance problem(instance.trace, instance.machine);
  for (const auto budget :
       {std::chrono::microseconds{200}, std::chrono::microseconds{2000},
        std::chrono::microseconds{20000}}) {
    SaConfig sa_config;
    sa_config.cancel = CancelToken::after(budget);
    expect_untorn(instance, solve_annealing(problem, sa_config), {},
                  "annealing");
    GaConfig ga_config;
    ga_config.cancel = CancelToken::after(budget);
    expect_untorn(instance, solve_genetic(problem, ga_config).best, {},
                  "genetic");
    CoordinateDescentConfig cd_config;
    cd_config.cancel = CancelToken::after(budget);
    expect_untorn(instance, solve_coordinate_descent(problem, cd_config), {},
                  "coord-descent");
  }
}

TEST(DeadlineContract, PortfolioUnderFiveMsDeadlineIsFeasibleOnEveryFamily) {
  // Acceptance criterion: a 5 ms portfolio race must return a feasible,
  // untorn schedule on every seeded generator workload.  Unequal v_j keep
  // each instance outside the aligned DP's exact class, so the whole
  // line-up races against the deadline instead of being skipped.
  for (WorkloadInstance instance : contract_instances()) {
    instance.machine.tasks[0].local_init += 1;
    PortfolioConfig config;
    config.deadline = std::chrono::milliseconds{5};
    const SolveInstance problem(instance.trace, instance.machine);
    ASSERT_FALSE(aligned_dp_is_exact(problem)) << instance.name;
    const PortfolioResult result = solve_portfolio(problem, config);
    EXPECT_FALSE(result.winner.empty()) << instance.name;
    for (const engine::PortfolioEntry& entry : result.entries) {
      EXPECT_NE(entry.error.rfind("skipped", 0), 0u)
          << instance.name << "/" << entry.solver;
    }
    expect_untorn(instance, result.best, {}, "portfolio/" + instance.name);
  }
}

}  // namespace
}  // namespace hyperrec
