// Internal to src/metaheur: the annealing machinery shared by the
// single-chain SA over both encodings (run_sa, run_sa_bstar) and the
// parallel-tempering replicas (run_pt).
//
// A Chain adapter gives one encoding a uniform interface — random state,
// one random move, evaluator type, final packing — so the Metropolis step
// and the SA loop are written once.  Every call draws only from the rng it
// is handed, in a fixed order (move type, move operands, then the
// acceptance uniform for uphill candidates only).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "metaheur/baselines.hpp"
#include "metaheur/bstar.hpp"
#include "metaheur/eval_cache.hpp"

namespace afp::metaheur {

struct SpChain {
  using State = SequencePair;
  using Evaluator = SpEvaluator;
  static State random(const floorplan::Instance& inst, std::mt19937_64& rng) {
    return SequencePair::random(inst.num_blocks(), rng);
  }
  static void mutate(State& s, std::mt19937_64& rng) {
    std::uniform_int_distribution<int> d(0, kNumMoves - 1);
    apply_move(s, static_cast<Move>(d(rng)), rng);
  }
  static std::vector<geom::Rect> pack_state(const floorplan::Instance& inst,
                                            const State& s, double spacing) {
    return pack(inst, s, spacing);
  }
};

struct BStarChain {
  using State = BStarTree;
  using Evaluator = BStarEvaluator;
  static State random(const floorplan::Instance& inst, std::mt19937_64& rng) {
    return BStarTree::random(inst.num_blocks(), rng);
  }
  static void mutate(State& s, std::mt19937_64& rng) {
    std::uniform_int_distribution<int> d(0, kNumBStarMoves - 1);
    apply_bstar_move(s, static_cast<BStarMove>(d(rng)), rng);
  }
  static std::vector<geom::Rect> pack_state(const floorplan::Instance& inst,
                                            const State& s, double spacing) {
    return pack_bstar(inst, s, spacing);
  }
};

/// Rejects schedules that would anneal through NaN, negative or rising
/// temperatures (written so that NaN fails too).
inline void check_schedule(const char* who, int iterations, double t_start,
                           double t_end) {
  if (iterations < 0) {
    throw std::invalid_argument(std::string(who) +
                                ": iterations must be >= 0");
  }
  if (!(t_end > 0.0 && t_start >= t_end)) {
    throw std::invalid_argument(std::string(who) +
                                ": need t_start >= t_end > 0");
  }
}

/// One Metropolis move at temperature `temp`: downhill candidates are
/// accepted outright, uphill ones with probability exp(-delta / temp).
/// Keeps (best, best_cost) at the lowest-cost state the chain has held.
template <class Chain>
void metropolis_step(typename Chain::Evaluator& ev, double temp,
                     std::mt19937_64& rng, typename Chain::State& cur,
                     double& cur_cost, typename Chain::State& best,
                     double& best_cost) {
  typename Chain::State cand = cur;
  Chain::mutate(cand, rng);
  const double cost = ev.cost(cand);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  if (cost < cur_cost || u01(rng) < std::exp((cur_cost - cost) / temp)) {
    cur = std::move(cand);
    cur_cost = cost;
    if (cur_cost < best_cost) {
      best = cur;
      best_cost = cur_cost;
    }
  }
}

/// Single-chain simulated annealing with a geometric schedule from t_start
/// to t_end over p.iterations moves; returns the best state visited.
template <class Chain>
BaselineResult anneal(const floorplan::Instance& inst, const SAParams& p,
                      std::mt19937_64& rng, const char* method) {
  check_schedule(method, p.iterations, p.t_start, p.t_end);
  const auto t0 = std::chrono::steady_clock::now();
  const double spacing = resolve_spacing(inst, p.spacing_um);
  typename Chain::Evaluator ev(inst, spacing, p.tt);
  typename Chain::State cur = Chain::random(inst, rng);
  double cur_cost = ev.cost(cur);
  typename Chain::State best = cur;
  double best_cost = cur_cost;
  long evals = 1;

  const double decay =
      std::pow(p.t_end / p.t_start, 1.0 / std::max(1, p.iterations - 1));
  double temp = p.t_start;
  StopPoll stopped(p.stop);
  for (int it = 0; it < p.iterations; ++it, temp *= decay) {
    if (stopped()) break;  // best-so-far; caller classifies why
    metropolis_step<Chain>(ev, temp, rng, cur, cur_cost, best, best_cost);
    ++evals;
  }
  BaselineResult r;
  r.method = method;
  r.rects = Chain::pack_state(inst, best, spacing);
  r.eval = floorplan::evaluate_floorplan(inst, r.rects);
  r.runtime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.evaluations = evals;
  return r;
}

}  // namespace afp::metaheur
