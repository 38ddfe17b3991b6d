#include "core/theorem1.hpp"

#include <unordered_map>

#include "support/cost_math.hpp"

namespace hyperrec {

namespace {

using detail::combine;

struct Interval {
  std::uint32_t end;   ///< inclusive last step of the committed interval
  std::uint32_t size;  ///< |U_j| + maxpriv over the interval
};

class Theorem1Solver {
 public:
  Theorem1Solver(const MultiTaskTrace& trace, const MachineSpec& machine,
                 const EvalOptions& options)
      : trace_(trace),
        machine_(machine),
        options_(options),
        n_(trace.steps()),
        m_(trace.task_count()) {
    // Precompute interval sizes: size_[j][s][e] = |U_j(s..e)| (inclusive).
    size_.resize(m_);
    for (std::size_t j = 0; j < m_; ++j) {
      size_[j].assign(n_, std::vector<std::uint32_t>(n_, 0));
      for (std::size_t s = 0; s < n_; ++s) {
        DynamicBitset running(trace_.task(j).local_universe());
        std::uint32_t count = 0;
        for (std::size_t e = s; e < n_; ++e) {
          count += static_cast<std::uint32_t>(
              running.merge_counting(trace_.task(j).at(e).local));
          size_[j][s][e] = count;
        }
      }
    }
  }

  MTSolution solve() {
    // Initial decision: every task enters an interval at step 0.
    std::vector<Interval> state(m_);
    Cost best = kCostInfinity;
    std::vector<std::uint32_t> best_ends;
    choose_initial(0, state, best, best_ends);
    // Costs saturate at the sentinel (support/cost_math.hpp), so an
    // adversarial local_init can leave every schedule "infinitely" costly.
    HYPERREC_ENSURE(best < kCostInfinity,
                    "Theorem-1 DP: every schedule's cost saturates");

    // Reconstruct the schedule by replaying the DP greedily.
    std::vector<std::vector<std::size_t>> starts(m_);
    std::vector<Interval> current(m_);
    {
      // Re-run the initial choice that achieved `best`.
      replay(best_ends, current, starts);
    }

    MultiTaskSchedule schedule;
    for (std::size_t j = 0; j < m_; ++j) {
      schedule.tasks.push_back(Partition::from_starts(std::move(starts[j]),
                                                      n_));
    }
    return make_solution(SolveInstance(trace_, machine_, options_),
                         std::move(schedule));
  }

 private:
  /// Enumerates initial ends for all tasks, tracking the best assignment.
  void choose_initial(std::size_t j, std::vector<Interval>& state, Cost& best,
                      std::vector<std::uint32_t>& best_ends) {
    if (j == m_) {
      Cost hyper = 0;
      for (std::size_t t = 0; t < m_; ++t) {
        hyper = combine(options_.hyper_upload, hyper,
                        machine_.tasks[t].local_init);
      }
      const Cost value = cost_add(hyper, run(0, state));
      if (value < best) {
        best = value;
        best_ends.resize(m_);
        for (std::size_t t = 0; t < m_; ++t) best_ends[t] = state[t].end;
      }
      return;
    }
    for (std::uint32_t e = 0; e < n_; ++e) {
      state[j] = Interval{e, interval_size(j, 0, e)};
      choose_initial(j + 1, state, best, best_ends);
    }
  }

  std::uint32_t interval_size(std::size_t j, std::size_t s,
                              std::size_t e) const {
    std::uint32_t max_priv = 0;
    for (std::size_t i = s; i <= e; ++i) {
      max_priv = std::max(max_priv, trace_.task(j).at(i).private_demand);
    }
    return size_[j][s][e] + max_priv;
  }

  /// Cost of steps t..n-1 given committed intervals (hyper charges for
  /// intervals starting at t already paid by the caller).
  Cost run(std::size_t t, std::vector<Interval>& state) {
    const std::uint64_t key = encode(t, state);
    if (const auto it = memo_.find(key); it != memo_.end()) {
      return it->second;
    }

    Cost step_cost = 0;
    for (std::size_t j = 0; j < m_; ++j) {
      step_cost = combine(options_.reconfig_upload, step_cost,
                          static_cast<Cost>(state[j].size));
    }

    Cost result;
    if (t + 1 == n_) {
      result = step_cost;
    } else {
      // Tasks whose interval ends at t must choose new intervals from t+1.
      std::vector<std::size_t> ending;
      for (std::size_t j = 0; j < m_; ++j) {
        if (state[j].end == t) ending.push_back(j);
      }
      Cost best = kCostInfinity;
      std::vector<Interval> next = state;
      choose_next(t, 0, ending, next, best);
      result = cost_add(step_cost, best);
    }
    memo_.emplace(key, result);
    return result;
  }

  /// Enumerates new ends for every task in `ending`, then recurses.
  void choose_next(std::size_t t, std::size_t idx,
                   const std::vector<std::size_t>& ending,
                   std::vector<Interval>& state, Cost& best) {
    if (idx == ending.size()) {
      Cost hyper = 0;
      for (const std::size_t j : ending) {
        hyper = combine(options_.hyper_upload, hyper,
                        machine_.tasks[j].local_init);
      }
      const Cost value = cost_add(hyper, run(t + 1, state));
      best = std::min(best, value);
      return;
    }
    const std::size_t j = ending[idx];
    const Interval saved = state[j];
    for (std::uint32_t e = static_cast<std::uint32_t>(t + 1); e < n_; ++e) {
      state[j] = Interval{e, interval_size(j, t + 1, e)};
      choose_next(t, idx + 1, ending, state, best);
    }
    state[j] = saved;
  }

  /// Replays the optimal decisions to extract boundary steps per task.
  void replay(const std::vector<std::uint32_t>& initial_ends,
              std::vector<Interval>& state,
              std::vector<std::vector<std::size_t>>& starts) {
    for (std::size_t j = 0; j < m_; ++j) {
      starts[j].push_back(0);
      state[j] = Interval{initial_ends[j], interval_size(j, 0,
                                                         initial_ends[j])};
    }
    for (std::size_t t = 0; t + 1 < n_; ++t) {
      std::vector<std::size_t> ending;
      for (std::size_t j = 0; j < m_; ++j) {
        if (state[j].end == t) ending.push_back(j);
      }
      if (ending.empty()) continue;
      // Pick the argmin assignment for the ending tasks.
      Cost best = kCostInfinity;
      std::vector<Interval> best_state;
      std::vector<Interval> next = state;
      choose_next_tracking(t, 0, ending, next, best, best_state);
      HYPERREC_ASSERT(best < kCostInfinity);
      state = best_state;
      for (const std::size_t j : ending) {
        starts[j].push_back(t + 1);
      }
    }
  }

  void choose_next_tracking(std::size_t t, std::size_t idx,
                            const std::vector<std::size_t>& ending,
                            std::vector<Interval>& state, Cost& best,
                            std::vector<Interval>& best_state) {
    if (idx == ending.size()) {
      Cost hyper = 0;
      for (const std::size_t j : ending) {
        hyper = combine(options_.hyper_upload, hyper,
                        machine_.tasks[j].local_init);
      }
      const Cost value = cost_add(hyper, run(t + 1, state));
      if (value < best) {
        best = value;
        best_state = state;
      }
      return;
    }
    const std::size_t j = ending[idx];
    const Interval saved = state[j];
    for (std::uint32_t e = static_cast<std::uint32_t>(t + 1); e < n_; ++e) {
      state[j] = Interval{e, interval_size(j, t + 1, e)};
      choose_next_tracking(t, idx + 1, ending, state, best, best_state);
    }
    state[j] = saved;
  }

  std::uint64_t encode(std::size_t t, const std::vector<Interval>& state) const {
    // n ≤ 64 and sizes ≤ 127 are enforced by the entry guard, so the packed
    // key fits into 64 bits for m ≤ 3: 6 bits step + m × (6 + 12) bits.
    std::uint64_t key = t;
    for (const Interval& interval : state) {
      key = (key << 6) | interval.end;
      key = (key << 12) | interval.size;
    }
    return key;
  }

  const MultiTaskTrace& trace_;
  const MachineSpec& machine_;
  const EvalOptions options_;
  const std::size_t n_;
  const std::size_t m_;
  std::vector<std::vector<std::vector<std::uint32_t>>> size_;
  std::unordered_map<std::uint64_t, Cost> memo_;
};

}  // namespace

double theorem1_state_space(const MultiTaskTrace& trace,
                            const MachineSpec& machine) {
  const double n = static_cast<double>(trace.steps());
  double states = n;
  for (const TaskSpec& task : machine.tasks) {
    states *= n * static_cast<double>(task.local_switches + 1);
  }
  return states;
}

MTSolution solve_theorem1_dp(const MultiTaskTrace& trace,
                             const MachineSpec& machine,
                             const EvalOptions& options) {
  machine.validate_trace(trace);
  HYPERREC_ENSURE(trace.synchronized(), "Theorem-1 DP needs equal-length "
                                        "traces");
  HYPERREC_ENSURE(!options.changeover,
                  "Theorem-1 DP does not support changeover costs");
  HYPERREC_ENSURE(machine.private_global_units == 0 &&
                      machine.public_context_size == 0,
                  "Theorem-1 DP covers the local-resources-only case (the "
                  "paper's first bound)");
  HYPERREC_ENSURE(trace.task_count() >= 1 && trace.task_count() <= 3,
                  "Theorem-1 DP implemented for m <= 3 tasks");
  HYPERREC_ENSURE(trace.steps() >= 1 && trace.steps() <= 64,
                  "Theorem-1 DP state packing supports n <= 64");
  HYPERREC_ENSURE(theorem1_state_space(trace, machine) <= 5e7,
                  "instance exceeds the Theorem-1 DP state budget");

  Theorem1Solver solver(trace, machine, options);
  return solver.solve();
}

}  // namespace hyperrec
