// Incremental evaluation engine for the metaheuristic search loops.
//
// Every SA/PT/RL-SA step perturbs one or two blocks, yet the legacy path
// re-packs the whole floorplan (sequence-pair: O(n^2) longest-path
// relaxation; B*-tree: a full contour pass) and rescans every net's every
// pin for HPWL.  The evaluators here keep the previous packing and update
// only what a move invalidated:
//
//  * SpEvaluator diffs the new sequence pair against the cached one, finds
//    the blocks whose match positions or shape changed, and re-relaxes the
//    longest paths only for blocks with a changed predecessor set or a
//    dirty predecessor value — every recomputed coordinate runs the exact
//    inner loop of pack(), so results are bitwise identical.
//  * BStarEvaluator re-packs the whole tree in one contour pass into reused
//    buffers.  A move shifts every block after it in preorder, so replaying
//    only the changed DFS suffix from contour snapshots, or diffing rects
//    to update HPWL per net, cost more than it saved.
//  * floorplan::HpwlCache re-scans only nets adjacent to moved blocks.
//  * TranspositionCache memoizes encoding -> cost across restarts/replicas
//    of one job (dual-SplitMix64 128-bit keys, striped locks).  Cached
//    costs are pure functions of the key, so sharing the cache across pool
//    threads cannot perturb results: 1-thread and N-thread runs stay
//    bitwise identical.
//
// Both evaluators run one mode dispatch (TT lookup/insert, check-mode
// parity), written once in eval_cache.cpp.
//
// Mode selection follows the simd_parity harness pattern: AFP_EVAL=
// full|delta|check (default delta).  `full` is the legacy recompute,
// `delta` the incremental path, and `check` runs both on every evaluation
// and throws std::logic_error on any cost or rectangle mismatch — the
// parity oracle the property suite and the sanitizer CI leg run under.
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

/// score_rects with the HPWL sum kept up to date by the per-net cache.
class RectScorer {
 public:
  void bind(const floorplan::Instance& inst);
  /// `moved` lists blocks whose rect changed since the last call; pass
  /// full = true (first evaluation / fallback repack) to rescan all nets.
  double cost(const std::vector<geom::Rect>& rects,
              const std::vector<int>& moved, bool full);

 private:
  const floorplan::Instance* inst_ = nullptr;
  double total_area_ = 0.0;
  floorplan::HpwlCache hpwl_;
};

}  // namespace detail

/// Incremental cost evaluator over sequence pairs.  One evaluator serves
/// one (instance, spacing) pair and one search chain: it carries the
/// previous packing as state.  Feeding it arbitrary states stays correct —
/// the diff is computed against whatever was evaluated last — it is only
/// fastest when successive states differ by a move or two.
class SpEvaluator {
 public:
  SpEvaluator(const floorplan::Instance& inst, double spacing,
              TranspositionCache* tt = nullptr);

  /// Cost of `sp`, bitwise equal to sp_cost(inst, pack(inst, sp, spacing))
  /// in every mode.  In check mode both paths run and must agree exactly.
  double cost(const SequencePair& sp);

 private:
  double eval_delta(const SequencePair& sp);
  void pack_full(const SequencePair& sp);
  /// Delta repack; falls back to pack_full when the diff is too large.
  void repack(const SequencePair& sp);

  const floorplan::Instance& inst_;
  double spacing_;
  TranspositionCache* tt_;
  detail::RectScorer scorer_;

  bool has_state_ = false;
  bool full_rescan_ = false;  ///< this eval rebuilt everything
  SequencePair cached_;
  std::vector<int> pos1_, pos2_;
  std::vector<double> w_, h_, x_, y_;
  std::vector<geom::Rect> rects_;
  std::vector<int> moved_;  ///< blocks whose rect changed in the last eval
  // Scratch (kept across evals to avoid reallocation).
  std::vector<int> npos1_, npos2_;
  std::vector<char> changed_;
  std::vector<int> touched_;
  /// Fenwick (binary indexed) trees holding running prefix maxima of block
  /// contributions (coord + extent), one per axis.  They turn each pass of
  /// the suffix re-relaxation into O(n log n): a block's packed coordinate
  /// is exactly the max contribution over its already-inserted
  /// predecessors, and max over the same set of doubles is bit-exact
  /// regardless of association order.
  std::vector<double> fenx_, feny_;
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
