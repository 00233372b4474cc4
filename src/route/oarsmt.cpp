#include "route/oarsmt.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <exception>
#include <iterator>
#include <limits>
#include <set>
#include <stdexcept>

#include "numeric/parallel.hpp"

namespace afp::route {

double SteinerTree::length() const {
  double total = 0.0;
  for (const auto& [a, b] : edges) {
    total += geom::manhattan(nodes[static_cast<std::size_t>(a)],
                             nodes[static_cast<std::size_t>(b)]);
  }
  return total;
}

geom::Point block_pin(const geom::Rect& rect, int routing_direction,
                      double offset) {
  switch (routing_direction & 3) {
    case 0: return {rect.x + rect.w / 2.0, rect.top() + offset};     // N
    case 1: return {rect.right() + offset, rect.y + rect.h / 2.0};   // E
    case 2: return {rect.x + rect.w / 2.0, rect.y - offset};         // S
    default: return {rect.x - offset, rect.y + rect.h / 2.0};        // W
  }
}

geom::Point block_pin_for_net(const geom::Rect& rect, int routing_direction,
                              std::size_t net_index) {
  geom::Point p = block_pin(rect, routing_direction);
  // Slide along the edge: slots at -2/6 .. +2/6 of the edge length.
  const double t = (static_cast<double>(net_index % 5) - 2.0) / 6.0;
  if ((routing_direction & 1) == 0) {
    p.x += t * rect.w;  // N/S edges run along x
  } else {
    p.y += t * rect.h;  // E/W edges run along y
  }
  return p;
}

namespace {

/// Binary min-heap of graph vertices keyed by (dist, vertex), with
/// decrease-key through a per-vertex position index.  Each reached vertex
/// sits in the heap at most once, with its current tentative distance, so
/// the heap carries the frontier's distances and no V-sized distance array
/// is needed.
class VertexHeap {
 public:
  struct Entry {
    double dist;
    std::uint32_t v;
  };

  explicit VertexHeap(std::size_t nv = 0) : pos_(nv, kUnseen) {}

  /// Forgets every vertex: all are unseen again.
  void reset() {
    heap_.clear();
    std::fill(pos_.begin(), pos_.end(), kUnseen);
  }

  bool empty() const { return heap_.empty(); }
  bool seen(std::size_t v) const { return pos_[v] != kUnseen; }
  bool settled(std::size_t v) const { return pos_[v] == kSettled; }

  /// Tentative distance of an unsettled vertex (+inf when unseen).
  double dist(std::size_t v) const {
    return pos_[v] == kUnseen ? std::numeric_limits<double>::infinity()
                              : heap_[pos_[v]].dist;
  }

  /// Inserts `v` or lowers its key; requires d < dist(v).
  void push_or_decrease(std::size_t v, double d) {
    std::size_t k = pos_[v];
    if (k == kUnseen) {
      k = heap_.size();
      heap_.push_back({});
    }
    sift_up(k, {d, static_cast<std::uint32_t>(v)});
  }

  /// Removes and returns the minimum entry, marking its vertex settled.
  Entry pop() {
    const Entry top = heap_.front();
    pos_[top.v] = kSettled;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
    return top;
  }

 private:
  static constexpr std::uint32_t kUnseen = 0xFFFFFFFFu;
  static constexpr std::uint32_t kSettled = 0xFFFFFFFEu;

  static bool less(const Entry& a, const Entry& b) {
    return a.dist < b.dist || (a.dist == b.dist && a.v < b.v);
  }

  void place(std::size_t k, const Entry& e) {
    heap_[k] = e;
    pos_[e.v] = static_cast<std::uint32_t>(k);
  }

  void sift_up(std::size_t k, const Entry& e) {
    while (k > 0) {
      const std::size_t parent = (k - 1) / 2;
      if (!less(e, heap_[parent])) break;
      place(k, heap_[parent]);
      k = parent;
    }
    place(k, e);
  }

  void sift_down(std::size_t k, const Entry& e) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t c = 2 * k + 1;
      if (c >= n) break;
      if (c + 1 < n && less(heap_[c + 1], heap_[c])) ++c;
      if (!less(heap_[c], e)) break;
      place(k, heap_[c]);
      k = c;
    }
    place(k, e);
  }

  std::vector<std::uint32_t> pos_;  ///< heap index, kUnseen or kSettled
  std::vector<Entry> heap_;
};

/// Escape-graph router over the Hanan grid of terminals + obstacle edges.
/// One graph serves one net, and owns that net's search scratch: about
/// 5 bytes per vertex (a heap position and a predecessor direction).
class EscapeGraph {
 public:
  EscapeGraph(std::span<const geom::Point> terminals,
              std::span<const geom::Rect> obstacles, double clearance) {
    std::vector<geom::Rect> shrunk;
    for (const auto& o : obstacles) {
      const geom::Rect s = o.inflated(-clearance);
      if (!s.empty()) shrunk.push_back(s);
    }
    std::set<double> xset, yset;
    for (const auto& t : terminals) {
      xset.insert(t.x);
      yset.insert(t.y);
    }
    for (const auto& o : shrunk) {
      xset.insert(o.x - clearance);
      xset.insert(o.right() + clearance);
      yset.insert(o.y - clearance);
      yset.insert(o.top() + clearance);
    }
    xs_.assign(xset.begin(), xset.end());
    ys_.assign(yset.begin(), yset.end());
    nx_ = static_cast<int>(xs_.size());
    ny_ = static_cast<int>(ys_.size());
    const std::size_t nv = static_cast<std::size_t>(nx_) * ny_;
    if (nv >= kMaxVertices) {
      throw std::length_error("route_net: escape graph too large");
    }
    // Occlusion bitmaps are range-marked per obstacle instead of testing
    // every grid point against every obstacle: a vertex (edge midpoint) is
    // covered exactly when its coordinate falls in the obstacle's half-open
    // span, so binary-searching the span's index range marks the same
    // vertices the old O(grid x obstacles) scan did.  `dx_`/`dy_` hold the
    // grid steps, i.e. the edge lengths.
    std::vector<double> xmid, ymid;  // midpoints of adjacent grid lines
    for (std::size_t i = 0; i + 1 < xs_.size(); ++i) {
      xmid.push_back((xs_[i] + xs_[i + 1]) / 2.0);
      dx_.push_back(xs_[i + 1] - xs_[i]);
    }
    for (std::size_t j = 0; j + 1 < ys_.size(); ++j) {
      ymid.push_back((ys_[j] + ys_[j + 1]) / 2.0);
      dy_.push_back(ys_[j + 1] - ys_[j]);
    }
    blocked_.assign(nv, false);
    hblocked_.assign(xmid.size() * static_cast<std::size_t>(ny_), false);
    vblocked_.assign(static_cast<std::size_t>(nx_) * ymid.size(), false);
    for (const auto& o : shrunk) {
      mark_covered(xs_, ys_, o, nx_, blocked_);
      mark_covered(xmid, ys_, o, nx_ - 1, hblocked_);
      mark_covered(xs_, ymid, o, nx_, vblocked_);
    }
    heap_ = VertexHeap(nv);
    from_.assign(nv, kSource);
  }

  std::size_t id(int i, int j) const {
    return static_cast<std::size_t>(j) * nx_ + i;
  }
  geom::Point point(std::size_t v) const {
    return {xs_[v % static_cast<std::size_t>(nx_)],
            ys_[v / static_cast<std::size_t>(nx_)]};
  }

  /// Nearest graph vertex to `p` (terminals are members by construction).
  std::size_t vertex_of(const geom::Point& p) const {
    const auto xi = std::lower_bound(xs_.begin(), xs_.end(), p.x - 1e-9);
    const auto yi = std::lower_bound(ys_.begin(), ys_.end(), p.y - 1e-9);
    const int i = static_cast<int>(std::min<std::ptrdiff_t>(
        xi - xs_.begin(), nx_ - 1));
    const int j = static_cast<int>(std::min<std::ptrdiff_t>(
        yi - ys_.begin(), ny_ - 1));
    return id(i, j);
  }

  /// Multi-source Dijkstra from `sources` until a vertex of `targets` (a
  /// sorted list) is settled.  Returns the path (vertex ids) or empty when
  /// unreachable.
  ///
  /// The indexed heap pops exactly the (dist, vertex) sequence a lazy
  /// std::priority_queue<pair<double, size_t>> does: a lazy heap's live
  /// entries are precisely the unsettled reached vertices at their current
  /// distances (stale entries are skipped), and the order is total.  A
  /// settled vertex is never relaxed again (distances popped later are no
  /// smaller and edge lengths are positive), so skipping settled vertices
  /// changes nothing either: every predecessor, and so every route, is
  /// the one the lazy search picks.
  std::vector<std::size_t> shortest_path(
      const std::vector<std::size_t>& sources,
      const std::vector<std::size_t>& targets) {
    heap_.reset();
    for (std::size_t s : sources) {
      if (blocked_[s] || heap_.seen(s)) continue;
      heap_.push_or_decrease(s, 0.0);
      from_[s] = kSource;
    }
    const std::size_t nv = blocked_.size();
    std::size_t goal = nv;
    const auto nxs = static_cast<std::size_t>(nx_);
    while (!heap_.empty()) {
      const auto [d, v] = heap_.pop();
      if (std::binary_search(targets.begin(), targets.end(), v)) {
        goal = v;
        break;
      }
      const std::size_t i = v % nxs;
      const std::size_t j = v / nxs;
      // Neighbours in the lazy search's order: west, east, south, north.
      // `back` is the direction from the neighbour back to v.
      auto relax = [&](std::size_t u, bool edge_blocked, double w,
                       std::uint8_t back) {
        if (blocked_[u] || edge_blocked || heap_.settled(u)) return;
        if (d + w < heap_.dist(u) - 1e-12) {
          heap_.push_or_decrease(u, d + w);
          from_[u] = back;
        }
      };
      const std::size_t hrow = j * (nxs - 1);
      if (i > 0) relax(v - 1, hblocked_[hrow + i - 1], dx_[i - 1], kEast);
      if (i + 1 < nxs) relax(v + 1, hblocked_[hrow + i], dx_[i], kWest);
      if (j > 0) {
        relax(v - nxs, vblocked_[(j - 1) * nxs + i], dy_[j - 1], kNorth);
      }
      if (j + 1 < static_cast<std::size_t>(ny_)) {
        relax(v + nxs, vblocked_[j * nxs + i], dy_[j], kSouth);
      }
    }
    std::vector<std::size_t> path;
    if (goal == nv) return path;
    for (std::size_t v = goal;;) {
      path.push_back(v);
      switch (from_[v]) {
        case kWest: v -= 1; continue;
        case kEast: v += 1; continue;
        case kSouth: v -= nxs; continue;
        case kNorth: v += nxs; continue;
        default: break;
      }
      break;
    }
    std::reverse(path.begin(), path.end());
    return path;
  }

 private:
  /// Predecessor directions: where a settled vertex's path came from.
  static constexpr std::uint8_t kWest = 0, kEast = 1, kSouth = 2, kNorth = 3,
                                kSource = 4;
  /// Vertex ids must fit the heap's 32-bit positions and its sentinels.
  static constexpr std::size_t kMaxVertices = 0xFFFFFFFEu;

  /// Marks every (x, y) grid cell covered by the half-open obstacle span,
  /// exactly reproducing Rect::contains on each coordinate pair.
  static void mark_covered(const std::vector<double>& xcoords,
                           const std::vector<double>& ycoords,
                           const geom::Rect& o, int stride,
                           std::vector<bool>& grid) {
    if (stride <= 0) return;
    const auto ix0 =
        std::lower_bound(xcoords.begin(), xcoords.end(), o.x) - xcoords.begin();
    const auto ix1 =
        std::lower_bound(xcoords.begin(), xcoords.end(), o.right()) -
        xcoords.begin();
    const auto iy0 =
        std::lower_bound(ycoords.begin(), ycoords.end(), o.y) - ycoords.begin();
    const auto iy1 =
        std::lower_bound(ycoords.begin(), ycoords.end(), o.top()) -
        ycoords.begin();
    for (auto j = iy0; j < iy1; ++j) {
      for (auto i = ix0; i < ix1; ++i) {
        grid[static_cast<std::size_t>(j) * stride + static_cast<std::size_t>(i)] =
            true;
      }
    }
  }

  std::vector<double> xs_, ys_;
  std::vector<double> dx_, dy_;  ///< lengths of the grid's x / y edges
  int nx_ = 0, ny_ = 0;
  std::vector<bool> blocked_;  ///< vertex inside an obstacle
  /// Edge midpoint inside an obstacle (the midpoint of two adjacent grid
  /// lines is exact, so this matches a per-query obstacle scan bit for bit).
  std::vector<bool> hblocked_, vblocked_;
  VertexHeap heap_;                 ///< search scratch, reset per round
  std::vector<std::uint8_t> from_;  ///< predecessor direction per vertex
};

}  // namespace

SteinerTree route_net(std::span<const geom::Point> terminals,
                      std::span<const geom::Rect> obstacles,
                      double clearance) {
  SteinerTree tree;
  if (terminals.size() < 2) {
    for (const auto& t : terminals) tree.nodes.push_back(t);
    return tree;
  }
  EscapeGraph g(terminals, obstacles, clearance);

  std::vector<std::size_t> term_v;
  term_v.reserve(terminals.size());
  for (const auto& t : terminals) term_v.push_back(g.vertex_of(t));

  // Grow the tree from the first terminal, attaching the nearest remaining
  // terminal through a shortest obstacle-avoiding path each round.
  std::vector<std::size_t> tree_vertices = {term_v[0]};
  std::vector<std::size_t> remaining(term_v.begin() + 1, term_v.end());
  std::sort(remaining.begin(), remaining.end());
  remaining.erase(std::unique(remaining.begin(), remaining.end()),
                  remaining.end());
  std::erase(remaining, term_v[0]);
  std::vector<std::pair<std::size_t, std::size_t>> vedges;
  while (!remaining.empty()) {
    const auto path = g.shortest_path(tree_vertices, remaining);
    if (path.empty()) {
      throw std::runtime_error("route_net: terminal unreachable");
    }
    for (std::size_t k = 1; k < path.size(); ++k) {
      vedges.emplace_back(path[k - 1], path[k]);
      tree_vertices.push_back(path[k]);
    }
    std::erase(remaining, path.back());
  }

  // Compact vertex ids into tree nodes; merge duplicate edges.
  std::vector<std::size_t> vids;
  for (const auto& [a, b] : vedges) {
    vids.push_back(a);
    vids.push_back(b);
  }
  std::sort(vids.begin(), vids.end());
  vids.erase(std::unique(vids.begin(), vids.end()), vids.end());
  auto index_of = [&](std::size_t v) {
    return static_cast<int>(std::lower_bound(vids.begin(), vids.end(), v) -
                            vids.begin());
  };
  for (std::size_t v : vids) tree.nodes.push_back(g.point(v));
  std::set<std::pair<int, int>> dedup;
  for (const auto& [a, b] : vedges) {
    int ia = index_of(a), ib = index_of(b);
    if (ia > ib) std::swap(ia, ib);
    if (ia != ib) dedup.emplace(ia, ib);
  }
  tree.edges.assign(dedup.begin(), dedup.end());
  return tree;
}

std::vector<Conduit> to_conduits(const SteinerTree& tree,
                                 const std::string& net) {
  // Collect per-orientation segments, then merge collinear runs.
  struct Seg {
    double fixed;  ///< y for horizontal, x for vertical
    double lo, hi;
  };
  std::vector<Seg> hor, ver;
  for (const auto& [a, b] : tree.edges) {
    const geom::Point pa = tree.nodes[static_cast<std::size_t>(a)];
    const geom::Point pb = tree.nodes[static_cast<std::size_t>(b)];
    if (std::abs(pa.y - pb.y) < 1e-12) {
      hor.push_back({pa.y, std::min(pa.x, pb.x), std::max(pa.x, pb.x)});
    } else if (std::abs(pa.x - pb.x) < 1e-12) {
      ver.push_back({pa.x, std::min(pa.y, pb.y), std::max(pa.y, pb.y)});
    } else {
      // L-shaped fallback (should not occur on a rectilinear grid).
      hor.push_back({pa.y, std::min(pa.x, pb.x), std::max(pa.x, pb.x)});
      ver.push_back({pb.x, std::min(pa.y, pb.y), std::max(pa.y, pb.y)});
    }
  }
  auto merge = [](std::vector<Seg>& segs) {
    std::sort(segs.begin(), segs.end(), [](const Seg& a, const Seg& b) {
      return a.fixed < b.fixed || (a.fixed == b.fixed && a.lo < b.lo);
    });
    std::vector<Seg> out;
    for (const Seg& s : segs) {
      if (!out.empty() && std::abs(out.back().fixed - s.fixed) < 1e-12 &&
          s.lo <= out.back().hi + 1e-12) {
        out.back().hi = std::max(out.back().hi, s.hi);
      } else {
        out.push_back(s);
      }
    }
    return out;
  };
  std::vector<Conduit> conduits;
  for (const Seg& s : merge(hor)) {
    conduits.push_back({{s.lo, s.fixed}, {s.hi, s.fixed}, 1, net});
  }
  for (const Seg& s : merge(ver)) {
    conduits.push_back({{s.fixed, s.lo}, {s.fixed, s.hi}, 2, net});
  }
  return conduits;
}

namespace {

/// One net's routing outcome, written by whichever worker routed it.
struct NetSlot {
  bool failed = false;
  SteinerTree tree;
  std::vector<Conduit> conduits;
  std::exception_ptr error;  ///< anything but a routing failure
};

/// Routes net `ni` into `slot`.  `on_net` is the calling worker's
/// all-zero per-block buffer; it is all-zero again on return.
void route_one(const floorplan::Instance& inst,
               const std::vector<geom::Rect>& rects,
               const std::vector<int>& routing_dirs, std::size_t ni,
               std::vector<char>& on_net, NetSlot& slot) {
  const auto& net = inst.nets[ni];
  if (net.size() < 2) return;
  std::vector<geom::Point> pins;
  for (int b : net) {
    const int dir = b < static_cast<int>(routing_dirs.size())
                        ? routing_dirs[static_cast<std::size_t>(b)]
                        : 0;
    pins.push_back(
        block_pin_for_net(rects[static_cast<std::size_t>(b)], dir, ni));
    on_net[static_cast<std::size_t>(b)] = 1;
  }
  // The escape graph is clipped to a window around the net's pins:
  // obstacles far outside the pin bounding box cannot improve the route,
  // but their Hanan lines quadratically inflate the grid.
  geom::Rect window = geom::bounding_box_points(pins);
  window = window.inflated(0.25 * std::max(window.w, window.h) + 2.0);
  auto gather_obstacles = [&](bool clip) {
    std::vector<geom::Rect> obstacles;
    for (int b = 0; b < inst.num_blocks(); ++b) {
      if (on_net[static_cast<std::size_t>(b)]) continue;
      const geom::Rect& r = rects[static_cast<std::size_t>(b)];
      if (clip && !r.overlaps(window)) continue;
      obstacles.push_back(r);
    }
    return obstacles;
  };
  try {
    try {
      slot.tree = route_net(pins, gather_obstacles(true));
    } catch (const std::runtime_error&) {
      // A pin walled in by window-boundary obstacles may still escape on
      // the full graph; retry once before declaring the net failed.
      slot.tree = route_net(pins, gather_obstacles(false));
    }
    slot.conduits = to_conduits(slot.tree, "net" + std::to_string(ni));
  } catch (const std::runtime_error&) {
    slot.failed = true;
  }
  for (int b : net) on_net[static_cast<std::size_t>(b)] = 0;
}

}  // namespace

GlobalRoute global_route(const floorplan::Instance& inst,
                         const std::vector<geom::Rect>& rects,
                         const std::vector<int>& routing_dirs) {
  if (rects.size() != static_cast<std::size_t>(inst.num_blocks())) {
    throw std::invalid_argument(
        "global_route: " + std::to_string(rects.size()) + " rects for " +
        std::to_string(inst.num_blocks()) + " blocks");
  }
  // Nets fan out over the pool: each worker claims the next unrouted net
  // from a shared cursor (the costly large-window nets cluster, so static
  // chunks balance badly) and writes only that net's slot.  Jobs already
  // running on a pool worker route inline.
  const std::size_t num_nets = inst.nets.size();
  std::vector<NetSlot> slots(num_nets);
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> abort{false};
  num::parallel_for(
      std::min<std::int64_t>(num::num_threads(),
                             static_cast<std::int64_t>(num_nets)),
      1, [&](std::int64_t, std::int64_t) {
        std::vector<char> on_net(rects.size(), 0);
        while (!abort.load(std::memory_order_relaxed)) {
          const std::size_t ni =
              cursor.fetch_add(1, std::memory_order_relaxed);
          if (ni >= num_nets) break;
          try {
            route_one(inst, rects, routing_dirs, ni, on_net, slots[ni]);
          } catch (...) {
            // Nets claimed before this one still finish, so the merge
            // below finds the lowest-index error, as a serial loop would.
            slots[ni].error = std::current_exception();
            abort.store(true, std::memory_order_relaxed);
          }
        }
      });
  // Merge in net order, so the result is bitwise identical at any thread
  // count (the wirelength sum included).
  GlobalRoute gr;
  for (std::size_t ni = 0; ni < num_nets; ++ni) {
    NetSlot& slot = slots[ni];
    if (slot.error) std::rethrow_exception(slot.error);
    if (slot.failed) ++gr.failed_nets;
    if (slot.failed || inst.nets[ni].size() < 2) continue;
    gr.total_wirelength += slot.tree.length();
    gr.conduits.insert(gr.conduits.end(),
                       std::make_move_iterator(slot.conduits.begin()),
                       std::make_move_iterator(slot.conduits.end()));
    gr.trees.push_back(std::move(slot.tree));
    gr.net_names.push_back("net" + std::to_string(ni));
  }
  return gr;
}

}  // namespace afp::route
