// Cost evaluators for the metaheuristic search loops.
//
// Every SA/PT/RL-SA step scores one candidate.  An evaluator packs it into
// buffers it owns and reuses, then scores the rects with one plain HPWL
// scan; neither keeps the previous packing as state.
//
//  * SpEvaluator packs a sequence pair with pack_into: O(n log n) through
//    one Fenwick prefix-max tree per axis.
//  * BStarEvaluator packs a B*-tree with pack_bstar_into: one contour pass.
//  * TranspositionCache memoizes encoding -> cost across restarts/replicas
//    of one job (dual-SplitMix64 128-bit keys, striped locks).  Cached
//    costs are pure functions of the key, so sharing the cache across pool
//    threads cannot perturb results: 1-thread and N-thread runs stay
//    bitwise identical.
//
// A move changes one or two blocks, but it shifts the coordinates of most
// blocks after it in s1/s2 (or in preorder), so diffing against the last
// packing and rescanning only dirty nets measured slower than packing and
// scanning everything afresh.
//
// Both evaluators run one mode dispatch (TT lookup/insert, check-mode
// parity), written once in eval_cache.cpp.  Mode selection follows the
// simd_parity harness pattern: AFP_EVAL=full|delta|check (default delta).
// `full` packs with the reference packer (the O(n^2) pack_reference for
// sequence pairs) and scores through sp_cost, bypassing the memo; `delta`
// is the fast path above; `check` runs both on every evaluation and throws
// std::logic_error on any cost or rectangle mismatch — the parity oracle
// the property suite and the sanitizer CI leg run under.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "metaheur/bstar.hpp"
#include "metaheur/sequence_pair.hpp"

namespace afp::metaheur {

enum class EvalMode : int { kFull = 0, kDelta = 1, kCheck = 2 };

/// Process-wide evaluation mode; first call reads AFP_EVAL (full|delta|
/// check, default delta; unknown values warn and fall back to delta).
EvalMode eval_mode();
/// Runtime override (tests); later eval_mode() calls observe it.
void set_eval_mode(EvalMode mode);
const char* to_string(EvalMode mode);

/// Memoizes encoding -> cost across the restarts and replicas of one job.
/// Keys are two independent SplitMix64 hashes of the encoding arrays (an
/// effective 128-bit key, collision odds negligible at cache scale); the
/// table is striped over mutexes so parallel-tempering replicas on the
/// pool share it without serializing.  Bounded at 2^18 entries: inserts
/// into a full stripe are dropped, so memory is capped and no eviction
/// policy can introduce cross-run variance.  Hit or miss never changes a
/// result — the cached value is exactly what a recompute would produce —
/// which is what makes a shared cache safe under the bitwise
/// thread-invariance contract.
class TranspositionCache {
 public:
  struct Key {
    std::uint64_t h1 = 0;
    std::uint64_t h2 = 0;
  };

  bool lookup(const Key& k, double* cost) const;
  void insert(const Key& k, double cost);

  long hits() const { return hits_.load(std::memory_order_relaxed); }
  long misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Inserts dropped because the target stripe was full — the bounded
  /// table's stand-in for an eviction count (nothing is ever evicted).
  long dropped() const { return dropped_.load(std::memory_order_relaxed); }
  long size() const;

  static Key hash(const SequencePair& sp);
  static Key hash(const BStarTree& tree);

 private:
  static constexpr int kStripes = 64;
  struct Stripe {
    mutable std::mutex mu;
    /// h1 -> (h2, cost); an h1 collision with a different h2 is a miss.
    std::unordered_map<std::uint64_t, std::pair<std::uint64_t, double>> map;
  };
  /// 2^18 entries in all, split evenly over the stripes.
  static constexpr std::size_t kPerStripeCap = (std::size_t{1} << 18) /
                                               kStripes;
  Stripe stripes_[kStripes];
  mutable std::atomic<long> hits_{0};
  mutable std::atomic<long> misses_{0};
  mutable std::atomic<long> dropped_{0};
};

namespace detail {

/// Cost of `rects` given their HPWL sum.  Mirrors the arithmetic of
/// sp_cost(evaluate_floorplan(...)) term by term so the result is bitwise
/// identical without re-deriving a relaxed instance on every constraint
/// violation.
double score_rects(const floorplan::Instance& inst, double total_area,
                   const std::vector<geom::Rect>& rects, double hpwl);

}  // namespace detail

/// Cost evaluator over sequence pairs: a Fenwick pack into reused
/// buffers, scored without re-deriving a relaxed instance on constraint
/// violations.
class SpEvaluator {
 public:
  SpEvaluator(const floorplan::Instance& inst, double spacing,
              TranspositionCache* tt = nullptr);

  /// Bitwise equal to sp_cost(inst, pack_reference(inst, sp, spacing)) in
  /// every mode.  In check mode both paths run and must agree exactly.
  double cost(const SequencePair& sp);

 private:
  double eval_delta(const SequencePair& sp);

  const floorplan::Instance& inst_;
  double spacing_;
  TranspositionCache* tt_;
  double total_area_;

  SpScratch scratch_;
  std::vector<geom::Rect> rects_;  ///< last evaluated packing
};

/// Cost evaluator over B*-trees: a full contour pack into reused buffers,
/// scored without re-deriving a relaxed instance on constraint violations.
class BStarEvaluator {
 public:
  BStarEvaluator(const floorplan::Instance& inst, double spacing,
                 TranspositionCache* tt = nullptr);

  /// Bitwise equal to sp_cost(inst, pack_bstar(inst, tree, spacing)).
  double cost(const BStarTree& tree);

 private:
  double eval_delta(const BStarTree& tree);

  const floorplan::Instance& inst_;
  double spacing_;
  TranspositionCache* tt_;
  double total_area_;

  BStarScratch scratch_;
  std::vector<geom::Rect> rects_;  ///< last evaluated packing
};

}  // namespace afp::metaheur
