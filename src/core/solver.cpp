#include "core/solver.hpp"

#include <memory>

#include "core/aligned_dp.hpp"
#include "core/annealing.hpp"
#include "core/coordinate_descent.hpp"
#include "core/genetic.hpp"
#include "core/greedy.hpp"

namespace hyperrec {

MTSolution make_solution(const SolveInstance& instance,
                         MultiTaskSchedule schedule) {
  MTSolution solution;
  solution.breakdown = evaluate_fully_sync_switch(instance, schedule);
  solution.schedule = std::move(schedule);
  return solution;
}

MTSolution make_solution_from_tables(const SolveInstance& instance,
                                     MultiTaskSchedule schedule) {
  MTSolution solution;
  solution.breakdown = detail::evaluate_fully_sync(
      instance.trace(), instance.stats(), instance.machine(), schedule,
      instance.options());
  solution.schedule = std::move(schedule);
  return solution;
}

std::vector<NamedSolver> standard_solvers(const SolveHints& hints) {
  HYPERREC_ENSURE(hints.warm_start.size() <= 1,
                  "at most one warm-start schedule");
  // One shared copy of the warm-start incumbent: the three iterative
  // members' closures (and any NamedSolver copies the portfolio makes)
  // alias it instead of deep-copying the schedule per capture; the solver
  // configs copy it only when a member actually runs.
  const std::shared_ptr<const MultiTaskSchedule> warm =
      hints.warm_start.empty()
          ? nullptr
          : std::make_shared<const MultiTaskSchedule>(hints.warm_start.front());
  const auto seed_of = [](const std::shared_ptr<const MultiTaskSchedule>& w) {
    return w == nullptr ? std::vector<MultiTaskSchedule>{}
                        : std::vector<MultiTaskSchedule>{*w};
  };
  std::vector<NamedSolver> solvers;
  solvers.push_back({"aligned-dp",
                     [](const SolveInstance& instance, const CancelToken&) {
                       return solve_aligned_dp(instance);
                     }});
  solvers.push_back({"greedy-w8",
                     [](const SolveInstance& instance, const CancelToken&) {
                       return solve_greedy(instance);
                     }});
  solvers.push_back({"coord-descent",
                     [warm, seed_of](const SolveInstance& instance,
                                     const CancelToken& cancel) {
                       CoordinateDescentConfig config;
                       config.seed = seed_of(warm);
                       config.cancel = cancel;
                       return solve_coordinate_descent(instance, config);
                     },
                     true});
  solvers.push_back({"genetic",
                     [warm, seed_of](const SolveInstance& instance,
                                     const CancelToken& cancel) {
                       GaConfig config;
                       config.seed_schedule = seed_of(warm);
                       config.cancel = cancel;
                       return solve_genetic(instance, config).best;
                     },
                     true});
  solvers.push_back({"annealing",
                     [warm, seed_of](const SolveInstance& instance,
                                     const CancelToken& cancel) {
                       SaConfig config;
                       config.seed_schedule = seed_of(warm);
                       config.cancel = cancel;
                       return solve_annealing(instance, config);
                     },
                     true});
  return solvers;
}

}  // namespace hyperrec
