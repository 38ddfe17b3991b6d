#include "core/genetic.hpp"

#include <algorithm>
#include <limits>

#include "core/aligned_dp.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace hyperrec {

namespace {

using Chromosome = std::vector<DynamicBitset>;  // one boundary mask per task

MultiTaskSchedule decode(const Chromosome& genes, bool global_resources) {
  MultiTaskSchedule schedule;
  schedule.tasks.reserve(genes.size());
  for (const DynamicBitset& mask : genes) {
    schedule.tasks.push_back(Partition::from_boundary_mask(mask));
  }
  if (global_resources) schedule.global_boundaries.push_back(0);
  return schedule;
}

Chromosome random_chromosome(std::size_t m, std::size_t n, double density,
                             Xoshiro256& rng) {
  Chromosome genes;
  genes.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    DynamicBitset mask(n);
    mask.set(0);
    for (std::size_t s = 1; s < n; ++s) {
      if (rng.flip(density)) mask.set(s);
    }
    genes.push_back(std::move(mask));
  }
  return genes;
}

Chromosome from_schedule(const MultiTaskSchedule& schedule) {
  Chromosome genes;
  genes.reserve(schedule.tasks.size());
  for (const Partition& partition : schedule.tasks) {
    genes.push_back(partition.to_boundary_mask());
  }
  return genes;
}

/// Two-point crossover applied per task mask; step 0 stays set.
void crossover(Chromosome& a, Chromosome& b, Xoshiro256& rng) {
  const std::size_t n = a.front().size();
  for (std::size_t j = 0; j < a.size(); ++j) {
    std::size_t lo = 1 + rng.uniform(n - 1);
    std::size_t hi = 1 + rng.uniform(n - 1);
    if (lo > hi) std::swap(lo, hi);
    for (std::size_t s = lo; s <= hi; ++s) {
      const bool bit_a = a[j].test(s);
      const bool bit_b = b[j].test(s);
      if (bit_a != bit_b) {
        if (bit_b) {
          a[j].set(s);
          b[j].reset(s);
        } else {
          a[j].reset(s);
          b[j].set(s);
        }
      }
    }
  }
}

void mutate(Chromosome& genes, double rate, Xoshiro256& rng) {
  for (DynamicBitset& mask : genes) {
    for (std::size_t s = 1; s < mask.size(); ++s) {
      if (rng.flip(rate)) {
        if (mask.test(s)) {
          mask.reset(s);
        } else {
          mask.set(s);
        }
      }
    }
  }
}

}  // namespace

GaResult solve_genetic(const SolveInstance& instance, const GaConfig& config) {
  const MultiTaskTrace& trace = instance.trace();
  const MachineSpec& machine = instance.machine();
  const EvalOptions& options = instance.options();
  HYPERREC_ENSURE(trace.synchronized(), "GA needs equal-length traces");
  HYPERREC_ENSURE(config.population >= 4, "population too small");
  HYPERREC_ENSURE(config.tournament >= 1, "tournament size must be >= 1");
  HYPERREC_ENSURE(config.seed_schedule.size() <= 1, "at most one seed");
  const std::size_t n = trace.steps();
  const std::size_t m = trace.task_count();
  const bool global_resources = machine.has_global_resources();
  const double mutation_rate = config.mutation_rate > 0
                                   ? config.mutation_rate
                                   : 1.5 / static_cast<double>(n);

  Xoshiro256 rng(config.seed);

  if (config.cancel.cancelled()) {
    // Expired before any work: return the warm-start seed when given (one
    // evaluation, same price as the fallback), else the single-interval
    // schedule (aligned-DP seeding could blow the deadline).
    GaResult result;
    const MultiTaskSchedule incumbent =
        config.seed_schedule.empty() ? MultiTaskSchedule::all_single(m, n)
                                     : config.seed_schedule.front();
    result.best = make_solution(
        instance, decode(from_schedule(incumbent), global_resources));
    return result;
  }

  // --- initial population: heuristic seeds + random densities -------------
  std::vector<Chromosome> population;
  population.reserve(config.population);
  if (!config.seed_schedule.empty()) {
    population.push_back(from_schedule(config.seed_schedule.front()));
  }
  if (!options.changeover) {
    population.push_back(from_schedule(solve_aligned_dp(instance).schedule));
  }
  population.push_back(from_schedule(MultiTaskSchedule::all_single(m, n)));
  population.push_back(from_schedule(MultiTaskSchedule::all_every_step(m, n)));
  while (population.size() < config.population) {
    const double density = 0.02 + 0.38 * rng.uniform01();
    population.push_back(random_chromosome(m, n, density, rng));
  }

  // Every generation prices the whole population: query the instance's
  // tables, built here once rather than by the first parallel fitness call.
  const MultiTaskTraceStats& stats = instance.stats();
  auto fitness_of = [&](const Chromosome& genes) {
    return detail::evaluate_fully_sync(trace, stats, machine,
                                       decode(genes, global_resources), options)
        .total;
  };

  std::vector<Cost> fitness(population.size());
  std::size_t evaluations = 0;
  auto evaluate_population = [&]() {
    if (config.parallel_fitness) {
      parallel_for(0, population.size(),
                   [&](std::size_t i) { fitness[i] = fitness_of(population[i]); });
    } else {
      for (std::size_t i = 0; i < population.size(); ++i) {
        fitness[i] = fitness_of(population[i]);
      }
    }
    evaluations += population.size();
  };
  evaluate_population();

  auto best_index = [&]() {
    return static_cast<std::size_t>(
        std::min_element(fitness.begin(), fitness.end()) - fitness.begin());
  };

  auto tournament_pick = [&]() {
    std::size_t winner = rng.uniform(population.size());
    for (std::size_t k = 1; k < config.tournament; ++k) {
      const std::size_t rival = rng.uniform(population.size());
      if (fitness[rival] < fitness[winner]) winner = rival;
    }
    return winner;
  };

  GaResult result;
  result.history.reserve(config.generations);
  Chromosome best_genes = population[best_index()];
  Cost best_cost = fitness[best_index()];
  std::size_t stale = 0;

  // Hoisted out of the generation loop: the population size is fixed, so
  // clearing and refilling reuses both buffers' capacity every generation.
  std::vector<Chromosome> next;
  next.reserve(population.size());
  std::vector<std::size_t> order(population.size());

  // lint: hot-loop begin
  for (std::size_t gen = 0; gen < config.generations; ++gen) {
    if (config.cancel.cancelled()) break;
    // --- breed the next generation (serial, deterministic) ----------------
    next.clear();
    next.reserve(population.size());

    order.resize(population.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return fitness[a] < fitness[b];
    });
    for (std::size_t e = 0; e < config.elites && e < order.size(); ++e) {
      next.push_back(population[order[e]]);
    }
    for (std::size_t im = 0; im < config.immigrants; ++im) {
      const double density = 0.02 + 0.38 * rng.uniform01();
      next.push_back(random_chromosome(m, n, density, rng));
    }
    while (next.size() < population.size()) {
      Chromosome child_a = population[tournament_pick()];
      Chromosome child_b = population[tournament_pick()];
      if (rng.flip(config.crossover_rate)) crossover(child_a, child_b, rng);
      mutate(child_a, mutation_rate, rng);
      mutate(child_b, mutation_rate, rng);
      next.push_back(std::move(child_a));
      if (next.size() < population.size()) next.push_back(std::move(child_b));
    }

    population = std::move(next);
    evaluate_population();

    const std::size_t champion = best_index();
    if (fitness[champion] < best_cost) {
      best_cost = fitness[champion];
      best_genes = population[champion];
      stale = 0;
    } else {
      ++stale;
    }
    result.history.push_back(best_cost);
    if (config.patience > 0 && stale >= config.patience) break;
  }
  // lint: hot-loop end

  result.best = make_solution_from_tables(
      instance, decode(best_genes, global_resources));
  result.evaluations = evaluations;
  return result;
}

}  // namespace hyperrec
