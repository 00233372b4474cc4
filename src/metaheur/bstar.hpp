// B*-tree floorplan representation (Chang et al.; used with SA by [15],
// cited in the paper's related work as the other classic topological
// model next to Sequence-Pair).
//
// A B*-tree node is a block; the left child is packed immediately to the
// right of its parent, the right child directly above it at the same x.
// y coordinates come from a horizontal contour.  B*-trees represent
// exactly the admissible *compacted* floorplans, so packings are always
// overlap-free and left/bottom compacted.
#pragma once

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "floorplan/instance.hpp"
#include "metaheur/baselines.hpp"

namespace afp::metaheur {

struct BStarTree {
  /// Per-slot child links (block indices; -1 = none) and tree root.
  std::vector<int> left;
  std::vector<int> right;
  std::vector<int> parent;
  int root = 0;
  /// Candidate-shape index per block.
  std::vector<int> shapes;

  int size() const { return static_cast<int>(left.size()); }

  /// Random topology + shapes over `num_blocks` blocks.
  static BStarTree random(int num_blocks, std::mt19937_64& rng);

  /// Structural invariant check (every block reachable exactly once).
  bool valid() const;
};

/// Horizontal contour: max height per x interval.  Linear-scan segment
/// list — exact and ample for tens of blocks.  clear() keeps the segment
/// buffers' capacity, so a contour reused across packings (see
/// BStarScratch) stops allocating once it has seen the widest floorplan.
class Contour {
 public:
  /// Max height over [x0, x1).
  double query(double x0, double x1) const {
    double y = 0.0;
    for (const auto& s : segs_) {
      if (s.x1 <= x0 || s.x0 >= x1) continue;
      y = std::max(y, s.y);
    }
    return y;
  }
  /// Raises [x0, x1) to height y.  Edits the sorted segment list in place:
  /// overlapped segments are trimmed to their parts outside [x0, x1) and
  /// the new segment is spliced in at its sorted position, producing
  /// exactly the same segment set as rebuilding and re-sorting from
  /// scratch (segments never overlap, so x0-order is total).
  void update(double x0, double x1, double y) {
    auto lo = std::partition_point(
        segs_.begin(), segs_.end(),
        [&](const Seg& s) { return s.x1 <= x0; });
    auto hi = std::partition_point(
        lo, segs_.end(), [&](const Seg& s) { return s.x0 < x1; });
    scratch_.clear();
    if (lo != hi && lo->x0 < x0) scratch_.push_back({lo->x0, x0, lo->y});
    scratch_.push_back({x0, x1, y});
    if (lo != hi && (hi - 1)->x1 > x1) {
      scratch_.push_back({x1, (hi - 1)->x1, (hi - 1)->y});
    }
    const auto n_old = static_cast<std::size_t>(hi - lo);
    if (n_old >= scratch_.size()) {
      auto out = std::copy(scratch_.begin(), scratch_.end(), lo);
      segs_.erase(out, hi);
    } else {
      std::copy(scratch_.begin(), scratch_.begin() + static_cast<long>(n_old),
                lo);
      segs_.insert(hi, scratch_.begin() + static_cast<long>(n_old),
                   scratch_.end());
    }
  }
  void clear() { segs_.clear(); }

 private:
  struct Seg {
    double x0, x1, y;
  };
  std::vector<Seg> segs_;
  std::vector<Seg> scratch_;  ///< update() staging (at most 3 segments)
};

/// Caller-owned working state of the contour packer.  A caller that packs
/// repeatedly (the annealing evaluator) keeps one, so steady-state packs
/// allocate nothing.
struct BStarScratch {
  Contour contour;
  std::vector<std::pair<int, double>> stack;  ///< DFS frontier: (node, x)
};

/// Packs the tree into `rects` (resized to the block count) using the
/// contour algorithm.  `spacing_um` pads every block on all sides
/// (congestion margin).
void pack_bstar_into(const floorplan::Instance& inst, const BStarTree& tree,
                     double spacing_um, BStarScratch& scratch,
                     std::vector<geom::Rect>& rects);

/// By-value convenience over pack_bstar_into with fresh buffers.
std::vector<geom::Rect> pack_bstar(const floorplan::Instance& inst,
                                   const BStarTree& tree,
                                   double spacing_um = 0.0);

/// B*-tree local moves for annealing.
enum class BStarMove : int {
  kChangeShape = 0,  ///< re-roll one block's shape
  kSwapBlocks,       ///< swap two blocks' tree positions
  kMoveLeaf,         ///< detach a leaf and reattach at a random free slot
};
constexpr int kNumBStarMoves = 3;

void apply_bstar_move(BStarTree& tree, BStarMove move, std::mt19937_64& rng);

/// Simulated annealing over B*-trees: the sequence-pair annealer's loop,
/// schedule and cost over the other encoding.
using BStarSAParams = SAParams;
BaselineResult run_sa_bstar(const floorplan::Instance& inst,
                            const BStarSAParams& p, std::mt19937_64& rng);

}  // namespace afp::metaheur
