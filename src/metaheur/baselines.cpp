#include "metaheur/baselines.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "metaheur/chains.hpp"
#include "numeric/parallel.hpp"

namespace afp::metaheur {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

BaselineResult finish(std::string method, const floorplan::Instance& inst,
                      const SequencePair& best, double spacing,
                      Clock::time_point t0, long evals) {
  BaselineResult r;
  r.method = std::move(method);
  r.rects = pack(inst, best, spacing);
  r.eval = floorplan::evaluate_floorplan(inst, r.rects);
  r.runtime_s = seconds_since(t0);
  r.evaluations = evals;
  return r;
}

/// Random move type, uniform.
Move random_move(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> d(0, kNumMoves - 1);
  return static_cast<Move>(d(rng));
}


/// Scores a batch of candidates on the shared thread pool.  pack/sp_cost
/// draw no randomness, so population methods generate candidates serially
/// (one RNG stream, the same draws as a sequential run) and fan the pure
/// evaluations out here — results are bitwise identical for any thread
/// count.  Population members are unrelated states (crossover offspring,
/// decoded swarm particles), so the incremental evaluator has nothing to
/// diff against: GA/PSO stay on the full recompute path on purpose.
std::vector<double> eval_population(const floorplan::Instance& inst,
                                    const std::vector<SequencePair>& pop,
                                    double spacing) {
  std::vector<double> cost(pop.size());
  num::parallel_for(static_cast<std::int64_t>(pop.size()), 1,
                    [&](std::int64_t i0, std::int64_t i1) {
                      for (std::int64_t i = i0; i < i1; ++i)
                        cost[static_cast<std::size_t>(i)] = sp_cost(
                            inst,
                            pack(inst, pop[static_cast<std::size_t>(i)],
                                 spacing));
                    });
  return cost;
}

}  // namespace

double resolve_spacing(const floorplan::Instance& inst, double spacing_um) {
  return spacing_um >= 0.0 ? spacing_um : inst.canvas_w / 32.0;
}

BaselineResult run_sa(const floorplan::Instance& inst, const SAParams& p,
                      std::mt19937_64& rng) {
  return anneal<SpChain>(inst, p, rng, "SA");
}

BaselineResult run_ga(const floorplan::Instance& inst, const GAParams& p,
                      std::mt19937_64& rng) {
  const auto t0 = Clock::now();
  const double spacing = resolve_spacing(inst, p.spacing_um);
  const int n = inst.num_blocks();
  std::vector<SequencePair> pop;
  long evals = 0;
  for (int i = 0; i < p.population; ++i) {
    pop.push_back(SequencePair::random(n, rng));
  }
  std::vector<double> cost = eval_population(inst, pop, spacing);
  evals += p.population;

  auto tournament = [&](int k) {
    std::uniform_int_distribution<int> d(0, p.population - 1);
    int best = d(rng);
    for (int i = 1; i < k; ++i) {
      const int c = d(rng);
      if (cost[static_cast<std::size_t>(c)] < cost[static_cast<std::size_t>(best)]) best = c;
    }
    return best;
  };

  // Order crossover (OX) for a permutation.
  auto ox = [&](const std::vector<int>& a, const std::vector<int>& b) {
    std::uniform_int_distribution<int> d(0, n - 1);
    int lo = d(rng), hi = d(rng);
    if (lo > hi) std::swap(lo, hi);
    std::vector<int> child(static_cast<std::size_t>(n), -1);
    std::vector<bool> used(static_cast<std::size_t>(n), false);
    for (int i = lo; i <= hi; ++i) {
      child[static_cast<std::size_t>(i)] = a[static_cast<std::size_t>(i)];
      used[static_cast<std::size_t>(a[static_cast<std::size_t>(i)])] = true;
    }
    int w = (hi + 1) % n;
    for (int i = 0; i < n; ++i) {
      const int v = b[static_cast<std::size_t>((hi + 1 + i) % n)];
      if (used[static_cast<std::size_t>(v)]) continue;
      child[static_cast<std::size_t>(w)] = v;
      w = (w + 1) % n;
    }
    return child;
  };

  std::uniform_real_distribution<double> unif(0.0, 1.0);
  StopPoll stopped(p.stop);
  for (int gen = 0; gen < p.generations; ++gen) {
    if (stopped()) break;
    // Selection, crossover and mutation draw from the single RNG stream;
    // the offspring are then scored in parallel (see eval_population).
    std::vector<SequencePair> children;
    while (static_cast<int>(children.size()) + 1 < p.population) {
      const SequencePair& pa = pop[static_cast<std::size_t>(tournament(p.tournament))];
      const SequencePair& pb = pop[static_cast<std::size_t>(tournament(p.tournament))];
      SequencePair child = pa;
      if (unif(rng) < p.crossover_rate) {
        child.s1 = ox(pa.s1, pb.s1);
        child.s2 = ox(pa.s2, pb.s2);
        for (int b = 0; b < n; ++b) {
          if (unif(rng) < 0.5)
            child.shapes[static_cast<std::size_t>(b)] =
                pb.shapes[static_cast<std::size_t>(b)];
        }
      }
      if (unif(rng) < p.mutation_rate) apply_move(child, random_move(rng), rng);
      children.push_back(std::move(child));
    }
    std::vector<double> child_cost = eval_population(inst, children, spacing);
    evals += static_cast<long>(children.size());
    // Elitism: keep the incumbent best, then install the offspring.
    const auto best_it = std::min_element(cost.begin(), cost.end());
    std::vector<SequencePair> next;
    std::vector<double> next_cost;
    next.reserve(children.size() + 1);
    next_cost.reserve(children.size() + 1);
    next.push_back(pop[static_cast<std::size_t>(best_it - cost.begin())]);
    next_cost.push_back(*best_it);
    for (std::size_t i = 0; i < children.size(); ++i) {
      next.push_back(std::move(children[i]));
      next_cost.push_back(child_cost[i]);
    }
    pop = std::move(next);
    cost = std::move(next_cost);
  }
  const auto best_it = std::min_element(cost.begin(), cost.end());
  return finish("GA", inst,
                pop[static_cast<std::size_t>(best_it - cost.begin())],
                spacing, t0, evals);
}

BaselineResult run_pso(const floorplan::Instance& inst, const PSOParams& p,
                       std::mt19937_64& rng) {
  // Random-key PSO: each particle holds continuous keys for s1 order,
  // s2 order and shape choice; argsort decodes permutations.
  const auto t0 = Clock::now();
  const double spacing = resolve_spacing(inst, p.spacing_um);
  const int n = inst.num_blocks();
  const int dim = 3 * n;
  std::uniform_real_distribution<double> unif(0.0, 1.0);

  auto decode = [&](const std::vector<double>& key) {
    SequencePair sp = SequencePair::initial(n);
    auto argsort = [&](int offset) {
      std::vector<int> idx(static_cast<std::size_t>(n));
      std::iota(idx.begin(), idx.end(), 0);
      std::sort(idx.begin(), idx.end(), [&](int a, int b) {
        return key[static_cast<std::size_t>(offset + a)] <
               key[static_cast<std::size_t>(offset + b)];
      });
      return idx;
    };
    sp.s1 = argsort(0);
    sp.s2 = argsort(n);
    for (int b = 0; b < n; ++b) {
      const double v = key[static_cast<std::size_t>(2 * n + b)];
      sp.shapes[static_cast<std::size_t>(b)] = std::clamp(
          static_cast<int>(v * floorplan::kNumShapes), 0,
          floorplan::kNumShapes - 1);
    }
    return sp;
  };

  std::vector<std::vector<double>> pos(static_cast<std::size_t>(p.particles)),
      vel(static_cast<std::size_t>(p.particles)),
      pbest(static_cast<std::size_t>(p.particles));
  std::vector<double> pbest_cost(static_cast<std::size_t>(p.particles), 1e300);
  std::vector<double> gbest;
  double gbest_cost = 1e300;
  long evals = 0;

  // Decode + score the whole swarm on the thread pool; decode is RNG-free.
  auto eval_swarm = [&]() {
    std::vector<SequencePair> decoded(pos.size());
    num::parallel_for(static_cast<std::int64_t>(pos.size()), 1,
                      [&](std::int64_t i0, std::int64_t i1) {
                        for (std::int64_t i = i0; i < i1; ++i)
                          decoded[static_cast<std::size_t>(i)] =
                              decode(pos[static_cast<std::size_t>(i)]);
                      });
    evals += static_cast<long>(pos.size());
    return eval_population(inst, decoded, spacing);
  };
  // Best updates run serially in particle order after each synchronous
  // sweep (classic synchronous PSO: an iteration's social term uses the
  // previous iteration's global best).
  auto update_bests = [&](const std::vector<double>& cost) {
    for (int i = 0; i < p.particles; ++i) {
      const double c = cost[static_cast<std::size_t>(i)];
      if (c < pbest_cost[static_cast<std::size_t>(i)]) {
        pbest_cost[static_cast<std::size_t>(i)] = c;
        pbest[static_cast<std::size_t>(i)] = pos[static_cast<std::size_t>(i)];
        if (c < gbest_cost) {
          gbest_cost = c;
          gbest = pos[static_cast<std::size_t>(i)];
        }
      }
    }
  };

  for (int i = 0; i < p.particles; ++i) {
    auto& x = pos[static_cast<std::size_t>(i)];
    vel[static_cast<std::size_t>(i)].assign(static_cast<std::size_t>(dim), 0.0);
    x.resize(static_cast<std::size_t>(dim));
    for (double& xi : x) xi = unif(rng);
  }
  update_bests(eval_swarm());

  StopPoll stopped(p.stop);
  for (int it = 0; it < p.iterations; ++it) {
    if (stopped()) break;
    for (int i = 0; i < p.particles; ++i) {
      auto& x = pos[static_cast<std::size_t>(i)];
      auto& v = vel[static_cast<std::size_t>(i)];
      for (int d = 0; d < dim; ++d) {
        const double r1 = unif(rng), r2 = unif(rng);
        v[static_cast<std::size_t>(d)] =
            p.inertia * v[static_cast<std::size_t>(d)] +
            p.c1 * r1 * (pbest[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)] -
                         x[static_cast<std::size_t>(d)]) +
            p.c2 * r2 * (gbest[static_cast<std::size_t>(d)] - x[static_cast<std::size_t>(d)]);
        x[static_cast<std::size_t>(d)] += v[static_cast<std::size_t>(d)];
        x[static_cast<std::size_t>(d)] = std::clamp(x[static_cast<std::size_t>(d)], 0.0, 1.0);
      }
    }
    update_bests(eval_swarm());
  }
  return finish("PSO", inst, decode(gbest), spacing, t0, evals);
}

BaselineResult run_rlsa(const floorplan::Instance& inst, const RLSAParams& p,
                        std::mt19937_64& rng) {
  // Move-type preferences theta, softmax policy pi(m); REINFORCE update
  // theta[m] += lr * improvement * (1 - pi(m)) after each proposal.
  check_schedule("RL-SA[13]", p.iterations, p.t_start, p.t_end);
  const auto t0 = Clock::now();
  const double spacing = resolve_spacing(inst, p.spacing_um);
  SpEvaluator ev(inst, spacing, p.tt);
  SequencePair cur = SequencePair::random(inst.num_blocks(), rng);
  double cur_cost = ev.cost(cur);
  SequencePair best = cur;
  double best_cost = cur_cost;
  long evals = 1;

  std::array<double, kNumMoves> theta{};
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  const double decay =
      std::pow(p.t_end / p.t_start, 1.0 / std::max(1, p.iterations - 1));
  double temp = p.t_start;

  auto policy = [&]() {
    std::array<double, kNumMoves> pi{};
    double mx = *std::max_element(theta.begin(), theta.end());
    double sum = 0.0;
    for (int m = 0; m < kNumMoves; ++m) {
      pi[static_cast<std::size_t>(m)] = std::exp(theta[static_cast<std::size_t>(m)] - mx);
      sum += pi[static_cast<std::size_t>(m)];
    }
    for (double& v : pi) v /= sum;
    return pi;
  };

  StopPoll stopped(p.stop);
  for (int it = 0; it < p.iterations; ++it, temp *= decay) {
    if (stopped()) break;
    const auto pi = policy();
    double u = unif(rng), cum = 0.0;
    int m = kNumMoves - 1;
    for (int k = 0; k < kNumMoves; ++k) {
      cum += pi[static_cast<std::size_t>(k)];
      if (u <= cum) {
        m = k;
        break;
      }
    }
    SequencePair cand = cur;
    apply_move(cand, static_cast<Move>(m), rng);
    const double cost = ev.cost(cand);
    ++evals;
    const double improvement = cur_cost - cost;
    // Policy-gradient step on the proposal's improvement signal.
    for (int k = 0; k < kNumMoves; ++k) {
      const double indicator = (k == m) ? 1.0 : 0.0;
      theta[static_cast<std::size_t>(k)] +=
          p.learning_rate * improvement *
          (indicator - pi[static_cast<std::size_t>(k)]);
    }
    if (cost < cur_cost || unif(rng) < std::exp((cur_cost - cost) / temp)) {
      cur = std::move(cand);
      cur_cost = cost;
      if (cur_cost < best_cost) {
        best = cur;
        best_cost = cur_cost;
      }
    }
  }
  return finish("RL-SA[13]", inst, best, spacing, t0, evals);
}

BaselineResult run_rlsp(const floorplan::Instance& inst, const RLSPParams& p,
                        std::mt19937_64& rng) {
  // Episodic policy gradient over move types with a per-episode baseline;
  // each episode improves a fresh random sequence pair, which reproduces
  // the heavier runtime profile [13] reports for its pure-RL variant.
  const auto t0 = Clock::now();
  const double spacing = resolve_spacing(inst, p.spacing_um);
  SpEvaluator ev(inst, spacing, p.tt);
  std::array<double, kNumMoves> theta{};
  SequencePair best = SequencePair::random(inst.num_blocks(), rng);
  double best_cost = ev.cost(best);
  long evals = 1;
  std::uniform_real_distribution<double> unif(0.0, 1.0);

  auto policy = [&]() {
    std::array<double, kNumMoves> pi{};
    double mx = *std::max_element(theta.begin(), theta.end());
    double sum = 0.0;
    for (int m = 0; m < kNumMoves; ++m) {
      pi[static_cast<std::size_t>(m)] = std::exp(theta[static_cast<std::size_t>(m)] - mx);
      sum += pi[static_cast<std::size_t>(m)];
    }
    for (double& v : pi) v /= sum;
    return pi;
  };

  double reward_baseline = 0.0;
  StopPoll stopped(p.stop);
  for (int ep = 0; ep < p.episodes; ++ep) {
    if (stopped()) break;
    SequencePair cur = SequencePair::random(inst.num_blocks(), rng);
    double cur_cost = ev.cost(cur);
    ++evals;
    std::vector<int> taken;
    for (int step = 0; step < p.steps_per_episode; ++step) {
      const auto pi = policy();
      double u = unif(rng), cum = 0.0;
      int m = kNumMoves - 1;
      for (int k = 0; k < kNumMoves; ++k) {
        cum += pi[static_cast<std::size_t>(k)];
        if (u <= cum) {
          m = k;
          break;
        }
      }
      SequencePair cand = cur;
      apply_move(cand, static_cast<Move>(m), rng);
      const double cost = ev.cost(cand);
      ++evals;
      if (cost <= cur_cost) {  // greedy improvement acceptance
        cur = std::move(cand);
        cur_cost = cost;
      }
      taken.push_back(m);
      if (cur_cost < best_cost) {
        best = cur;
        best_cost = cur_cost;
      }
    }
    const double episode_reward = -cur_cost;
    const double advantage = episode_reward - reward_baseline;
    reward_baseline = 0.9 * reward_baseline + 0.1 * episode_reward;
    const auto pi = policy();
    for (int m : taken) {
      for (int k = 0; k < kNumMoves; ++k) {
        const double indicator = (k == m) ? 1.0 : 0.0;
        theta[static_cast<std::size_t>(k)] +=
            p.learning_rate * advantage *
            (indicator - pi[static_cast<std::size_t>(k)]) /
            static_cast<double>(taken.size());
      }
    }
  }
  return finish("RL[13]", inst, best, spacing, t0, evals);
}

double estimate_hpwl_min(const floorplan::Instance& inst,
                         std::mt19937_64& rng, int iterations) {
  SequencePair cur = SequencePair::random(inst.num_blocks(), rng);
  auto hp = [&](const SequencePair& sp) {
    return floorplan::hpwl_of(inst, pack(inst, sp, 0.0));
  };
  double cur_h = hp(cur);
  double best = cur_h;
  double temp = 1.0;
  const double decay = std::pow(1e-3, 1.0 / std::max(1, iterations - 1));
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  for (int it = 0; it < iterations; ++it, temp *= decay) {
    SequencePair cand = cur;
    std::uniform_int_distribution<int> d(0, kNumMoves - 1);
    apply_move(cand, static_cast<Move>(d(rng)), rng);
    const double h = hp(cand);
    const double scale = std::max(1.0, best);
    if (h < cur_h || unif(rng) < std::exp((cur_h - h) / (temp * scale))) {
      cur = std::move(cand);
      cur_h = h;
      best = std::min(best, cur_h);
    }
  }
  return std::max(1.0, best);
}

}  // namespace afp::metaheur
