// Obstacle-Avoiding Rectilinear Steiner Minimal Tree (OARSMT) global
// router (Section IV-E; as in [13]).
//
// Per net: an escape graph is built from the Hanan coordinates of the
// terminals plus the (slightly inflated) obstacle boundaries; terminals
// are connected one at a time via Dijkstra shortest paths over the graph
// (nearest-terminal-first Steiner construction).  The search runs on an
// indexed (dist, vertex) min-heap with decrease-key, about 5 bytes of
// scratch per vertex, and pops the same sequence a lazy priority queue
// would, so routes do not depend on the heap.  The resulting tree is
// segmented into per-layer conduits that guide detailed routing:
// horizontal segments on layer 1, vertical on layer 2.
//
// global_route fans nets out over the shared numeric pool and merges the
// per-net results in net order: output is bitwise identical for any
// AFP_NUM_THREADS.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "floorplan/instance.hpp"

namespace afp::route {

/// Rectilinear tree over Steiner nodes.
struct SteinerTree {
  std::vector<geom::Point> nodes;
  /// Edges are axis-aligned segments between node indices.
  std::vector<std::pair<int, int>> edges;

  double length() const;
  bool empty() const { return edges.empty(); }
};

/// A straight routed segment on one layer.
struct Conduit {
  geom::Point a;
  geom::Point b;
  int layer = 1;  ///< 1 = horizontal, 2 = vertical
  std::string net;
};

/// Routes one net.  `terminals` are pin locations; `obstacles` are regions
/// the route must not cross (they are shrunk by `clearance` so edges along
/// block boundaries remain legal).  Throws std::runtime_error when some
/// terminal cannot be reached.
SteinerTree route_net(std::span<const geom::Point> terminals,
                      std::span<const geom::Rect> obstacles,
                      double clearance = 0.05);

/// Splits a tree into per-layer conduits, merging collinear edges.
std::vector<Conduit> to_conduits(const SteinerTree& tree,
                                 const std::string& net);

/// Pin location of a block: the midpoint of its preferred routing edge
/// (routing_direction 0=N,1=E,2=S,3=W), nudged outside by `offset`.
geom::Point block_pin(const geom::Rect& rect, int routing_direction,
                      double offset = 0.0);

/// Per-net pin location: terminals of different nets spread out along the
/// block's routing edge (template realization gives each net its own
/// terminal), preventing distinct nets from converging on one point.
geom::Point block_pin_for_net(const geom::Rect& rect, int routing_direction,
                              std::size_t net_index);

struct GlobalRoute {
  std::vector<SteinerTree> trees;     ///< one per routed net
  std::vector<std::string> net_names;
  std::vector<Conduit> conduits;
  double total_wirelength = 0.0;
  int failed_nets = 0;
};

/// Routes every net of the instance over the placed blocks.  Blocks not on
/// the net act as obstacles; pins sit on block boundaries per each block's
/// preferred routing direction (derived from the structure type when the
/// graph is available; here: north).  Each net's escape graph only sees the
/// obstacles inside a window around its pins; a net that cannot be routed
/// there is retried once against every obstacle before it counts as failed.
/// Nets are routed concurrently on the numeric pool (inline when called from
/// a pool worker) and merged in net order, so the result does not depend on
/// the thread count; when a net throws anything but std::runtime_error, the
/// lowest-index such exception propagates.  Throws std::invalid_argument
/// unless `rects` holds one rectangle per block.
GlobalRoute global_route(const floorplan::Instance& inst,
                         const std::vector<geom::Rect>& rects,
                         const std::vector<int>& routing_dirs = {});

}  // namespace afp::route
