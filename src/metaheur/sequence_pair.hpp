// Sequence-Pair floorplan representation (Murata et al.; symmetry context
// per Balasa & Lampaert [14]).
//
// A candidate solution is (s1, s2, shapes): two permutations of the block
// indices plus one candidate-shape index per block.  Packing follows the
// classic rule — a before b in both sequences places a left of b; a before
// b in s1 and after b in s2 places a above b — and computes coordinates by
// longest-path relaxation.  pack_into runs it in O(n log n) with a Fenwick
// prefix-max tree per axis (Tang & Wong, FAST-SP, ASP-DAC 2001);
// pack_reference keeps the O(n^2) pairwise loops as the test oracle.
//
// Congestion-aware spacing: blocks are packed with a margin added on every
// side (reserving routing channels, as the paper applies to all baseline
// methods), then the original rectangles are centered in their padded
// slots.
#pragma once

#include <random>
#include <vector>

#include "floorplan/instance.hpp"

namespace afp::metaheur {

struct SequencePair {
  std::vector<int> s1;
  std::vector<int> s2;
  std::vector<int> shapes;

  /// Identity sequence pair with the middle shape everywhere.
  static SequencePair initial(int num_blocks);
  /// Uniformly random sequence pair.
  static SequencePair random(int num_blocks, std::mt19937_64& rng);

  int size() const { return static_cast<int>(s1.size()); }
};

/// Caller-owned working state of the packer.  A caller that packs
/// repeatedly (the annealing evaluator, the HPWL-reference SA) keeps one,
/// so steady-state packs allocate nothing.
struct SpScratch {
  std::vector<int> pos1, pos2;  ///< each block's index in s1 / s2
  std::vector<double> fen;      ///< Fenwick prefix-max tree of one axis
};

/// Packs the sequence pair into `rects` (resized to the block count; lower
/// left at the origin).  `spacing_um` is the per-side congestion margin.
/// Each coordinate is the max over the same operands as pack_reference,
/// and a max of doubles is exact in any order, so the two agree bitwise.
void pack_into(const floorplan::Instance& inst, const SequencePair& sp,
               double spacing_um, SpScratch& scratch,
               std::vector<geom::Rect>& rects);

/// By-value convenience over pack_into with fresh buffers.
std::vector<geom::Rect> pack(const floorplan::Instance& inst,
                             const SequencePair& sp, double spacing_um = 0.0);

/// The O(n^2) pairwise longest-path relaxation: the oracle that
/// AFP_EVAL=full|check and the tests hold pack_into to.
std::vector<geom::Rect> pack_reference(const floorplan::Instance& inst,
                                       const SequencePair& sp,
                                       double spacing_um = 0.0);

/// Local move vocabulary shared by SA / GA mutation / the [13] agents.
enum class Move : int {
  kSwapS1 = 0,    ///< swap two blocks in s1
  kSwapS2,        ///< swap two blocks in s2
  kSwapBoth,      ///< swap the same two blocks in both sequences
  kChangeShape,   ///< re-roll one block's candidate shape
};
constexpr int kNumMoves = 4;

/// Applies a random instance of `move` in place.
void apply_move(SequencePair& sp, Move move, std::mt19937_64& rng);

/// Cost of a packed floorplan: the negated Eq. (5) reward plus a soft
/// penalty for constraint violations (lower is better).
double sp_cost(const floorplan::Instance& inst,
               const std::vector<geom::Rect>& rects);

}  // namespace afp::metaheur
