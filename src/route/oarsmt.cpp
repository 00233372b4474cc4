#include "route/oarsmt.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <set>
#include <stdexcept>

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

/// Escape-graph router over the Hanan grid of terminals + obstacle edges.
class EscapeGraph {
 public:
  EscapeGraph(std::span<const geom::Point> terminals,
              std::span<const geom::Rect> obstacles, double clearance) {
    for (const auto& o : obstacles) {
      const geom::Rect s = o.inflated(-clearance);
      if (!s.empty()) obstacles_.push_back(s);
    }
    std::set<double> xset, yset;
    for (const auto& t : terminals) {
      xset.insert(t.x);
      yset.insert(t.y);
    }
    for (const auto& o : obstacles_) {
      xset.insert(o.x - clearance);
      xset.insert(o.right() + clearance);
      yset.insert(o.y - clearance);
      yset.insert(o.top() + clearance);
    }
    xs_.assign(xset.begin(), xset.end());
    ys_.assign(yset.begin(), yset.end());
    nx_ = static_cast<int>(xs_.size());
    ny_ = static_cast<int>(ys_.size());
    // Occlusion bitmaps are range-marked per obstacle instead of testing
    // every grid point against every obstacle: a vertex (edge midpoint) is
    // covered exactly when its coordinate falls in the obstacle's half-open
    // span, so binary-searching the span's index range marks the same
    // vertices the old O(grid x obstacles) scan did.
    xmid_.resize(nx_ > 0 ? static_cast<std::size_t>(nx_ - 1) : 0);
    for (std::size_t i = 0; i + 1 < xs_.size(); ++i) {
      xmid_[i] = (xs_[i] + xs_[i + 1]) / 2.0;
    }
    ymid_.resize(ny_ > 0 ? static_cast<std::size_t>(ny_ - 1) : 0);
    for (std::size_t j = 0; j + 1 < ys_.size(); ++j) {
      ymid_[j] = (ys_[j] + ys_[j + 1]) / 2.0;
    }
    blocked_.assign(static_cast<std::size_t>(nx_) * ny_, false);
    hblocked_.assign(xmid_.size() * static_cast<std::size_t>(ny_), false);
    vblocked_.assign(static_cast<std::size_t>(nx_) * ymid_.size(), false);
    for (const auto& o : obstacles_) {
      mark_covered(xs_, ys_, o, nx_, blocked_);
      mark_covered(xmid_, ys_, o, nx_ - 1, hblocked_);
      mark_covered(xs_, ymid_, o, nx_, vblocked_);
    }
    const std::size_t nv = blocked_.size();
    dist_.assign(nv, std::numeric_limits<double>::infinity());
    prev_.assign(nv, nv);
    stamp_.assign(nv, 0);
  }

  int nx() const { return nx_; }
  int ny() const { return ny_; }
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

  /// Multi-source Dijkstra from `sources` until any vertex of `targets`
  /// is settled.  Returns the path (vertex ids) or empty when unreachable.
  /// Scratch arrays are epoch-stamped so consecutive rounds of the Steiner
  /// construction skip the O(vertices) reset.
  std::vector<std::size_t> shortest_path(
      const std::vector<std::size_t>& sources,
      const std::set<std::size_t>& targets) const {
    const std::size_t nv = blocked_.size();
    ++epoch_;
    const double inf = std::numeric_limits<double>::infinity();
    auto dist_of = [&](std::size_t v) {
      return stamp_[v] == epoch_ ? dist_[v] : inf;
    };
    using QE = std::pair<double, std::size_t>;
    std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
    for (std::size_t s : sources) {
      if (blocked_[s]) continue;
      stamp_[s] = epoch_;
      dist_[s] = 0.0;
      prev_[s] = nv;
      pq.emplace(0.0, s);
    }
    std::size_t goal = nv;
    while (!pq.empty()) {
      const auto [d, v] = pq.top();
      pq.pop();
      if (d > dist_of(v)) continue;
      if (targets.count(v)) {
        goal = v;
        break;
      }
      const int i = static_cast<int>(v % static_cast<std::size_t>(nx_));
      const int j = static_cast<int>(v / static_cast<std::size_t>(nx_));
      const std::array<std::pair<int, int>, 4> nbrs{
          {{i - 1, j}, {i + 1, j}, {i, j - 1}, {i, j + 1}}};
      for (const auto& [ni, nj] : nbrs) {
        if (ni < 0 || ni >= nx_ || nj < 0 || nj >= ny_) continue;
        const std::size_t u = id(ni, nj);
        if (blocked_[u] || edge_blocked(i, j, ni, nj)) continue;
        const double w =
            std::abs(xs_[static_cast<std::size_t>(ni)] - xs_[static_cast<std::size_t>(i)]) +
            std::abs(ys_[static_cast<std::size_t>(nj)] - ys_[static_cast<std::size_t>(j)]);
        if (dist_[v] + w < dist_of(u) - 1e-12) {
          stamp_[u] = epoch_;
          dist_[u] = dist_[v] + w;
          prev_[u] = v;
          pq.emplace(dist_[u], u);
        }
      }
    }
    std::vector<std::size_t> path;
    if (goal == nv) return path;
    for (std::size_t v = goal; v != nv; v = prev_[v]) path.push_back(v);
    std::reverse(path.begin(), path.end());
    return path;
  }

 private:
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

  /// Mid-point occlusion, looked up in the precomputed edge bitmaps (the
  /// midpoint of two adjacent grid lines is exact, so this matches the old
  /// per-query obstacle scan bit for bit).
  bool edge_blocked(int i0, int j0, int i1, int j1) const {
    if (j0 == j1) {
      return hblocked_[static_cast<std::size_t>(j0) * (nx_ - 1) +
                       static_cast<std::size_t>(std::min(i0, i1))];
    }
    return vblocked_[static_cast<std::size_t>(std::min(j0, j1)) * nx_ +
                     static_cast<std::size_t>(i0)];
  }

  std::vector<geom::Rect> obstacles_;
  std::vector<double> xs_, ys_;
  std::vector<double> xmid_, ymid_;  ///< midpoints of adjacent grid lines
  int nx_ = 0, ny_ = 0;
  std::vector<bool> blocked_;            ///< vertex inside an obstacle
  std::vector<bool> hblocked_, vblocked_;  ///< edge midpoint inside one
  mutable std::vector<double> dist_;
  mutable std::vector<std::size_t> prev_;
  mutable std::vector<std::uint32_t> stamp_;
  mutable std::uint32_t epoch_ = 0;
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
  std::set<std::size_t> remaining(term_v.begin() + 1, term_v.end());
  remaining.erase(term_v[0]);
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
    remaining.erase(path.back());
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

GlobalRoute global_route(const floorplan::Instance& inst,
                         const std::vector<geom::Rect>& rects,
                         const std::vector<int>& routing_dirs) {
  GlobalRoute gr;
  std::vector<char> on_net(static_cast<std::size_t>(inst.num_blocks()), 0);
  for (std::size_t ni = 0; ni < inst.nets.size(); ++ni) {
    const auto& net = inst.nets[ni];
    if (net.size() < 2) continue;
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
    const std::string name = "net" + std::to_string(ni);
    try {
      SteinerTree tree;
      try {
        tree = route_net(pins, gather_obstacles(true));
      } catch (const std::runtime_error&) {
        // A pin walled in by window-boundary obstacles may still escape on
        // the full graph; retry once before declaring the net failed.
        tree = route_net(pins, gather_obstacles(false));
      }
      gr.total_wirelength += tree.length();
      const auto cs = to_conduits(tree, name);
      gr.conduits.insert(gr.conduits.end(), cs.begin(), cs.end());
      gr.trees.push_back(std::move(tree));
      gr.net_names.push_back(name);
    } catch (const std::runtime_error&) {
      ++gr.failed_nets;
    }
    for (int b : net) on_net[static_cast<std::size_t>(b)] = 0;
  }
  return gr;
}

}  // namespace afp::route
