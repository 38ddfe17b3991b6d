#include "engine/portfolio.hpp"

#include <algorithm>
#include <future>
#include <optional>
#include <utility>

#include "core/aligned_dp.hpp"
#include "core/lower_bound.hpp"

namespace hyperrec::engine {

namespace {

using Clock = std::chrono::steady_clock;

std::vector<NamedSolver> resolve_members(const PortfolioConfig& config,
                                         const SolveHints& hints) {
  std::vector<NamedSolver> members;
  std::vector<NamedSolver> line_up = standard_solvers(hints);
  if (config.solvers.empty()) {
    members = std::move(line_up);
  } else {
    members.reserve(config.solvers.size());
    for (const std::string& name : config.solvers) {
      bool found = false;
      for (const NamedSolver& solver : line_up) {
        if (solver.name == name) {
          members.push_back(solver);
          found = true;
          break;
        }
      }
      HYPERREC_ENSURE(found, "unknown portfolio solver: " + name);
    }
  }
  for (const NamedSolver& solver : config.extra) {
    HYPERREC_ENSURE(static_cast<bool>(solver.fn),
                    "extra portfolio member has no solver function");
    members.push_back(solver);
  }
  return members;
}

}  // namespace

bool portfolio_is_exact(const SolveInstance& instance,
                        const PortfolioConfig& config) {
  const bool listed =
      config.solvers.empty() ||
      std::find(config.solvers.begin(), config.solvers.end(), "aligned-dp") !=
          config.solvers.end();
  return listed && aligned_dp_is_exact(instance);
}

PortfolioResult solve_portfolio(const SolveInstance& instance,
                                const PortfolioConfig& config,
                                const CancelToken& cancel) {
  HYPERREC_ENSURE(config.warm_start.size() <= 1,
                  "at most one warm-start schedule");
  SolveHints hints;
  if (!config.warm_start.empty()) {
    // Normalize the incumbent for this machine (a cached schedule may come
    // from a machine with different global resources), then insist it fits
    // the instance — a mis-shaped seed would only surface deep inside a
    // member solver.
    MultiTaskSchedule warm = config.warm_start.front();
    warm.global_boundaries.clear();
    if (instance.machine().has_global_resources()) {
      warm.global_boundaries.push_back(0);
    }
    warm.validate(instance.task_count(), instance.steps());
    hints.warm_start.push_back(std::move(warm));
  }
  const std::vector<NamedSolver> members = resolve_members(config, hints);
  HYPERREC_ENSURE(!members.empty(), "portfolio needs at least one member");
  // Registry members come first, in line-up order; `extra` members follow
  // them and never qualify.
  std::optional<std::size_t> exact;
  if (portfolio_is_exact(instance, config)) {
    const auto registry_end =
        members.end() - static_cast<std::ptrdiff_t>(config.extra.size());
    const auto aligned = std::find_if(
        members.begin(), registry_end,
        [](const NamedSolver& solver) { return solver.name == "aligned-dp"; });
    HYPERREC_ASSERT(aligned != registry_end);
    exact = static_cast<std::size_t>(aligned - members.begin());
  }

  CancelToken race = config.deadline.count() > 0
                         ? CancelToken::linked(cancel,
                                               Clock::now() + config.deadline)
                         : CancelToken::linked(cancel);

  PortfolioResult result;
  result.entries.resize(members.size());
  std::vector<MTSolution> solutions(members.size());
  std::vector<char> ran(members.size(), 0);
  const Clock::time_point race_start = Clock::now();

  auto run_member = [&](std::size_t i) {
    PortfolioEntry& entry = result.entries[i];
    entry.solver = members[i].name;
    ran[i] = 1;
    const Clock::time_point start = Clock::now();
    try {
      // Every member races the same shared instance (no per-racer copies).
      solutions[i] = members[i].solve(instance, race);
      entry.total = solutions[i].total();
      entry.ok = true;
      if (config.cancel_losers) race.cancel();
    } catch (const std::exception& error) {
      entry.error = error.what();
    }
    entry.elapsed =
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start);
  };

  ThreadPool& pool = config.pool != nullptr ? *config.pool
                                            : ThreadPool::global();
  if (exact.has_value()) {
    // The aligned DP is optimal here: racing anyone else cannot improve on
    // it, so every other member is reported as skipped.
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i == *exact) continue;
      result.entries[i].solver = members[i].name;
      result.entries[i].error = "skipped: aligned-dp is exact on this instance";
    }
    run_member(*exact);
  } else if (config.parallel && members.size() > 1 &&
             !pool.on_worker_thread()) {
    // on_worker_thread(): racing from inside a worker of the target pool
    // would block it on members queued behind it (no work stealing) —
    // degrade to the serial branch, mirroring parallel_for's guard.
    std::vector<std::future<void>> futures;
    futures.reserve(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      futures.push_back(pool.submit([&run_member, i]() { run_member(i); }));
    }
    for (auto& future : futures) future.get();
  } else {
    bool decided = false;
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (config.cancel_losers && decided) {
        // Running a member after the race is decided would only hand it an
        // already-cancelled token and collect a degenerate incumbent —
        // report it as skipped instead of as a plausible-looking result.
        result.entries[i].solver = members[i].name;
        result.entries[i].error = "skipped: an earlier member won the race";
        continue;
      }
      run_member(i);
      decided = decided || result.entries[i].ok;
    }
  }

  result.elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::now() - race_start);

  bool have_winner = false;
  std::size_t winner = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (!result.entries[i].ok) continue;
    if (!have_winner || result.entries[i].total < result.entries[winner].total) {
      have_winner = true;
      winner = i;
    }
  }
  HYPERREC_ENSURE(have_winner,
                  "every portfolio member failed: " +
                      result.entries[exact.value_or(0)].error);
  result.best = std::move(solutions[winner]);
  result.winner = members[winner].name;
  if (!hints.warm_start.empty()) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (ran[i] != 0 && members[i].consumes_warm_start) {
        result.warm_started = true;
      }
    }
  }
  if (config.certify && instance.synchronized()) {
    if (exact.has_value()) {
      // The answer is the optimum: it certifies itself, no relaxation needed.
      result.best.lower_bound = result.best.total();
      result.best.gap_pct = 0.0;
    } else {
      attach_certificate(instance, result.best);
    }
  }
  return result;
}

}  // namespace hyperrec::engine
