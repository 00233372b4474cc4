#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <random>
#include <set>
#include <stdexcept>

#include "graphir/graph.hpp"
#include "ingest/scenario.hpp"
#include "netlist/library.hpp"
#include "numeric/parallel.hpp"
#include "route/oarsmt.hpp"
#include "structrec/structrec.hpp"

namespace afp::route {
namespace {

// Reference oracle: the escape-graph router with a lazy Dijkstra — a
// std::priority_queue of (dist, vertex) pairs with stale entries skipped,
// full dist/prev arrays and std::set targets — and occlusion tested by
// scanning every obstacle per query.  route_net's indexed heap, occlusion
// bitmaps and compact scratch must build bitwise the same trees and fail
// on the same nets.
class ReferenceGraph {
 public:
  ReferenceGraph(std::span<const geom::Point> terminals,
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
  }

  std::size_t id(int i, int j) const {
    return static_cast<std::size_t>(j) * nx_ + i;
  }
  geom::Point point(std::size_t v) const {
    return {xs_[v % static_cast<std::size_t>(nx_)],
            ys_[v / static_cast<std::size_t>(nx_)]};
  }
  std::size_t vertex_of(const geom::Point& p) const {
    const auto xi = std::lower_bound(xs_.begin(), xs_.end(), p.x - 1e-9);
    const auto yi = std::lower_bound(ys_.begin(), ys_.end(), p.y - 1e-9);
    const int i = static_cast<int>(std::min<std::ptrdiff_t>(
        xi - xs_.begin(), nx_ - 1));
    const int j = static_cast<int>(std::min<std::ptrdiff_t>(
        yi - ys_.begin(), ny_ - 1));
    return id(i, j);
  }

  /// Point-in-obstacle scan, as the original per-query occlusion test.
  bool covered(const geom::Point& p) const {
    for (const auto& o : obstacles_) {
      if (o.contains(p)) return true;
    }
    return false;
  }

  std::vector<std::size_t> shortest_path(
      const std::vector<std::size_t>& sources,
      const std::set<std::size_t>& targets) const {
    const std::size_t nv = static_cast<std::size_t>(nx_) * ny_;
    std::vector<double> dist(nv, std::numeric_limits<double>::infinity());
    std::vector<std::size_t> prev(nv, nv);
    using QE = std::pair<double, std::size_t>;
    std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
    for (std::size_t s : sources) {
      if (covered(point(s))) continue;
      dist[s] = 0.0;
      prev[s] = nv;
      pq.emplace(0.0, s);
    }
    std::size_t goal = nv;
    while (!pq.empty()) {
      const auto [d, v] = pq.top();
      pq.pop();
      if (d > dist[v]) continue;
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
        const auto xi = static_cast<std::size_t>(i);
        const auto yj = static_cast<std::size_t>(j);
        const auto xn = static_cast<std::size_t>(ni);
        const auto yn = static_cast<std::size_t>(nj);
        const geom::Point mid{(xs_[xi] + xs_[xn]) / 2.0,
                              (ys_[yj] + ys_[yn]) / 2.0};
        if (covered(point(u)) || covered(mid)) continue;
        const double w = std::abs(xs_[xn] - xs_[xi]) +
                         std::abs(ys_[yn] - ys_[yj]);
        if (dist[v] + w < dist[u] - 1e-12) {
          dist[u] = dist[v] + w;
          prev[u] = v;
          pq.emplace(dist[u], u);
        }
      }
    }
    std::vector<std::size_t> path;
    if (goal == nv) return path;
    for (std::size_t v = goal; v != nv; v = prev[v]) path.push_back(v);
    std::reverse(path.begin(), path.end());
    return path;
  }

 private:
  std::vector<geom::Rect> obstacles_;
  std::vector<double> xs_, ys_;
  int nx_ = 0, ny_ = 0;
};

SteinerTree reference_route_net(std::span<const geom::Point> terminals,
                                std::span<const geom::Rect> obstacles,
                                double clearance = 0.05) {
  SteinerTree tree;
  if (terminals.size() < 2) {
    for (const auto& t : terminals) tree.nodes.push_back(t);
    return tree;
  }
  ReferenceGraph g(terminals, obstacles, clearance);
  std::vector<std::size_t> term_v;
  for (const auto& t : terminals) term_v.push_back(g.vertex_of(t));
  std::vector<std::size_t> tree_vertices = {term_v[0]};
  std::set<std::size_t> remaining(term_v.begin() + 1, term_v.end());
  remaining.erase(term_v[0]);
  std::vector<std::pair<std::size_t, std::size_t>> vedges;
  while (!remaining.empty()) {
    const auto path = g.shortest_path(tree_vertices, remaining);
    if (path.empty()) {
      throw std::runtime_error("reference_route_net: terminal unreachable");
    }
    for (std::size_t k = 1; k < path.size(); ++k) {
      vedges.emplace_back(path[k - 1], path[k]);
      tree_vertices.push_back(path[k]);
    }
    remaining.erase(path.back());
  }
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

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const geom::Point& a, const geom::Point& b) {
  return same_bits(a.x, b.x) && same_bits(a.y, b.y);
}

::testing::AssertionResult trees_identical(const SteinerTree& a,
                                           const SteinerTree& b) {
  if (a.nodes.size() != b.nodes.size()) {
    return ::testing::AssertionFailure()
           << a.nodes.size() << " vs " << b.nodes.size() << " nodes";
  }
  for (std::size_t k = 0; k < a.nodes.size(); ++k) {
    if (!same_bits(a.nodes[k], b.nodes[k])) {
      return ::testing::AssertionFailure() << "node " << k << " differs";
    }
  }
  if (a.edges != b.edges) {
    return ::testing::AssertionFailure() << "edges differ";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult routes_identical(const GlobalRoute& a,
                                            const GlobalRoute& b) {
  if (a.trees.size() != b.trees.size()) {
    return ::testing::AssertionFailure() << "tree counts differ";
  }
  for (std::size_t k = 0; k < a.trees.size(); ++k) {
    auto same = trees_identical(a.trees[k], b.trees[k]);
    if (!same) return same << " in tree " << k;
  }
  if (a.net_names != b.net_names) {
    return ::testing::AssertionFailure() << "net names differ";
  }
  if (a.conduits.size() != b.conduits.size()) {
    return ::testing::AssertionFailure() << "conduit counts differ";
  }
  for (std::size_t k = 0; k < a.conduits.size(); ++k) {
    const Conduit& ca = a.conduits[k];
    const Conduit& cb = b.conduits[k];
    if (!same_bits(ca.a, cb.a) || !same_bits(ca.b, cb.b) ||
        ca.layer != cb.layer || ca.net != cb.net) {
      return ::testing::AssertionFailure() << "conduit " << k << " differs";
    }
  }
  if (!same_bits(a.total_wirelength, b.total_wirelength)) {
    return ::testing::AssertionFailure() << "wirelengths differ";
  }
  if (a.failed_nets != b.failed_nets) {
    return ::testing::AssertionFailure() << "failed net counts differ";
  }
  return ::testing::AssertionSuccess();
}

/// Instance and grid placement of a circuit: `per_row` blocks per row,
/// rows `row_step` times the tallest block of the row apart (below 1 the
/// rows overlap, walling some pins in).
struct Placed {
  floorplan::Instance inst;
  std::vector<geom::Rect> rects;
};

Placed place_on_grid(const netlist::Netlist& nl, int per_row,
                     double row_step = 1.0) {
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  Placed p{floorplan::make_instance(g), {}};
  double x = 0.0, y = 0.0, row_h = 0.0;
  int col = 0;
  for (const auto& b : p.inst.blocks) {
    p.rects.push_back({x, y, b.shapes[1].w, b.shapes[1].h});
    x += b.shapes[1].w + 1.0;
    row_h = std::max(row_h, b.shapes[1].h);
    if (++col == per_row) {
      col = 0;
      x = 0.0;
      y += row_step * row_h + 1.0;
      row_h = 0.0;
    }
  }
  return p;
}

bool is_rectilinear(const SteinerTree& t) {
  for (const auto& [a, b] : t.edges) {
    const auto pa = t.nodes[static_cast<std::size_t>(a)];
    const auto pb = t.nodes[static_cast<std::size_t>(b)];
    if (std::abs(pa.x - pb.x) > 1e-9 && std::abs(pa.y - pb.y) > 1e-9) {
      return false;
    }
  }
  return true;
}

bool tree_connected(const SteinerTree& t) {
  if (t.nodes.empty()) return true;
  std::vector<std::vector<int>> adj(t.nodes.size());
  for (const auto& [a, b] : t.edges) {
    adj[static_cast<std::size_t>(a)].push_back(b);
    adj[static_cast<std::size_t>(b)].push_back(a);
  }
  std::vector<bool> seen(t.nodes.size(), false);
  std::vector<int> stack{0};
  seen[0] = true;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (int u : adj[static_cast<std::size_t>(v)]) {
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = true;
        stack.push_back(u);
      }
    }
  }
  for (bool s : seen) {
    if (!s) return false;
  }
  return true;
}

bool segment_crosses(const geom::Point& a, const geom::Point& b,
                     const geom::Rect& obstacle) {
  // Sample the open segment; obstacles are axis-aligned so a fine sampling
  // suffices for the test.
  for (int k = 1; k < 50; ++k) {
    const double t = k / 50.0;
    const geom::Point p{a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t};
    if (obstacle.inflated(-1e-6).contains(p)) return true;
  }
  return false;
}

TEST(RouteNet, TwoTerminalStraightLine) {
  const std::vector<geom::Point> pins{{0, 0}, {10, 0}};
  const auto tree = route_net(pins, {});
  EXPECT_TRUE(tree_connected(tree));
  EXPECT_NEAR(tree.length(), 10.0, 1e-9);
}

TEST(RouteNet, LShapeWithoutObstacles) {
  const std::vector<geom::Point> pins{{0, 0}, {5, 7}};
  const auto tree = route_net(pins, {});
  EXPECT_NEAR(tree.length(), 12.0, 1e-9);  // Manhattan distance
  EXPECT_TRUE(is_rectilinear(tree));
}

TEST(RouteNet, DetoursAroundObstacle) {
  const std::vector<geom::Point> pins{{0, 5}, {10, 5}};
  const std::vector<geom::Rect> obstacles{{4, 0, 2, 12}};  // wall
  const auto tree = route_net(pins, obstacles);
  EXPECT_TRUE(tree_connected(tree));
  EXPECT_GT(tree.length(), 10.0);  // must detour
  for (const auto& [a, b] : tree.edges) {
    EXPECT_FALSE(segment_crosses(tree.nodes[static_cast<std::size_t>(a)],
                                 tree.nodes[static_cast<std::size_t>(b)],
                                 obstacles[0]));
  }
}

TEST(RouteNet, MultiTerminalSteinerSavesLength) {
  // Three collinear-ish pins: Steiner tree should share the trunk.
  const std::vector<geom::Point> pins{{0, 0}, {10, 0}, {5, 5}};
  const auto tree = route_net(pins, {});
  EXPECT_TRUE(tree_connected(tree));
  // Star from centroid would cost 15; tree shares the x-axis trunk: 10+5.
  EXPECT_LE(tree.length(), 15.0 + 1e-9);
}

TEST(RouteNet, SingleTerminalIsEmptyTree) {
  const std::vector<geom::Point> pins{{3, 3}};
  const auto tree = route_net(pins, {});
  EXPECT_TRUE(tree.empty());
}

TEST(RouteNet, UnreachableThrows) {
  const std::vector<geom::Point> pins{{0, 0}, {10, 0}};
  // Box the first pin in completely: four overlapping walls form a closed
  // ring around the origin.
  const std::vector<geom::Rect> obstacles{
      {-2, -2, 4, 0.5},   // bottom
      {-2, 1.5, 4, 0.5},  // top
      {-2, -2, 0.5, 4},   // left
      {1.5, -2, 0.5, 4},  // right
  };
  EXPECT_THROW(route_net(pins, obstacles, 0.01), std::runtime_error);
}

TEST(ToConduits, SplitsByOrientationAndMerges) {
  SteinerTree t;
  t.nodes = {{0, 0}, {5, 0}, {10, 0}, {10, 4}};
  t.edges = {{0, 1}, {1, 2}, {2, 3}};
  const auto cs = to_conduits(t, "n1");
  // Two horizontal edges merge into one conduit; one vertical remains.
  int hcount = 0, vcount = 0;
  for (const auto& c : cs) {
    if (c.layer == 1) {
      ++hcount;
      EXPECT_NEAR(c.a.x, 0.0, 1e-12);
      EXPECT_NEAR(c.b.x, 10.0, 1e-12);
    } else {
      ++vcount;
    }
    EXPECT_EQ(c.net, "n1");
  }
  EXPECT_EQ(hcount, 1);
  EXPECT_EQ(vcount, 1);
}

TEST(BlockPin, EdgesByDirection) {
  const geom::Rect r{0, 0, 4, 2};
  EXPECT_EQ(block_pin(r, 0), (geom::Point{2, 2}));  // N
  EXPECT_EQ(block_pin(r, 1), (geom::Point{4, 1}));  // E
  EXPECT_EQ(block_pin(r, 2), (geom::Point{2, 0}));  // S
  EXPECT_EQ(block_pin(r, 3), (geom::Point{0, 1}));  // W
  EXPECT_EQ(block_pin(r, 0, 0.5), (geom::Point{2, 2.5}));
}

TEST(GlobalRoute, RoutesEveryNetOfPlacedCircuit) {
  // Place ota2 blocks on a simple row and route.
  netlist::Netlist nl = netlist::make_ota2();
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  auto inst = floorplan::make_instance(g);
  std::vector<geom::Rect> rects;
  double x = 0.0;
  for (const auto& b : inst.blocks) {
    rects.push_back({x, 0.0, b.shapes[1].w, b.shapes[1].h});
    x += b.shapes[1].w + 1.0;
  }
  const auto gr = global_route(inst, rects);
  EXPECT_EQ(gr.failed_nets, 0);
  EXPECT_EQ(gr.trees.size(), inst.nets.size());
  EXPECT_GT(gr.total_wirelength, 0.0);
  EXPECT_FALSE(gr.conduits.empty());
  for (const auto& t : gr.trees) {
    EXPECT_TRUE(tree_connected(t));
    EXPECT_TRUE(is_rectilinear(t));
  }
}

TEST(GlobalRoute, WindowedLargeInstanceRoutesCleanly) {
  // The router clips each net's escape graph to a window around its pins
  // at every instance size; the routed trees must still be connected,
  // rectilinear and cover every multi-pin net, from small library circuits
  // up to a generated 100-block workload.
  const auto sc =
      ingest::make_scenario(ingest::ScenarioSpec::parse("ota:100:3"));
  for (const auto& nl : {netlist::make_driver(),
                         netlist::make_folded_cascode(), sc.netlist}) {
    SCOPED_TRACE(nl.name());
    // 10-wide grid of blocks so windows genuinely exclude far obstacles.
    const Placed p = place_on_grid(nl, 10);
    const auto gr = global_route(p.inst, p.rects);
    EXPECT_EQ(gr.failed_nets, 0);
    EXPECT_GT(gr.total_wirelength, 0.0);
    std::size_t multipin = 0;
    for (const auto& net : p.inst.nets) multipin += net.size() >= 2 ? 1 : 0;
    EXPECT_EQ(gr.trees.size(), multipin);
    for (const auto& t : gr.trees) {
      EXPECT_TRUE(tree_connected(t));
      EXPECT_TRUE(is_rectilinear(t));
    }
  }
}

TEST(GlobalRoute, WirelengthGrowsWithSpread) {
  netlist::Netlist nl = netlist::make_ota_small();
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  auto inst = floorplan::make_instance(g);
  auto place = [&](double gap) {
    std::vector<geom::Rect> rects;
    double x = 0.0;
    for (const auto& b : inst.blocks) {
      rects.push_back({x, 0.0, b.shapes[1].w, b.shapes[1].h});
      x += b.shapes[1].w + gap;
    }
    return rects;
  };
  const auto tight = global_route(inst, place(0.5));
  const auto spread = global_route(inst, place(10.0));
  EXPECT_GT(spread.total_wirelength, tight.total_wirelength);
}

TEST(RouteNet, MatchesLazyHeapReferenceOnRandomInstances) {
  std::mt19937_64 rng(20260415);
  auto uniform = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  // Coordinates on a 0.25 grid, so terminals, obstacle edges and Hanan
  // lines coincide often.
  auto coord = [&] { return 0.25 * pick(0, 160); };
  int routed = 0, unreachable = 0, coincident = 0, walled = 0;
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<geom::Point> pins;
    const int n_pins = pick(2, 8);
    for (int k = 0; k < n_pins; ++k) pins.push_back({coord(), coord()});
    if (trial % 5 == 1) {  // coincident terminals
      pins.back() = pins.front();
      ++coincident;
    }
    std::vector<geom::Rect> obstacles;
    const int n_obs = pick(0, 40);
    for (int k = 0; k < n_obs; ++k) {
      obstacles.push_back({coord(), coord(), uniform(0.5, 8.0),
                           0.25 * pick(2, 32)});
    }
    if (trial % 7 == 3) {  // wall one terminal in with a closed ring
      const geom::Point c = pins[static_cast<std::size_t>(trial) % pins.size()];
      obstacles.push_back({c.x - 2, c.y - 2, 4, 0.5});
      obstacles.push_back({c.x - 2, c.y + 1.5, 4, 0.5});
      obstacles.push_back({c.x - 2, c.y - 2, 0.5, 4});
      obstacles.push_back({c.x + 1.5, c.y - 2, 0.5, 4});
      ++walled;
    }
    const double clearance = trial % 3 == 0 ? 0.01 : 0.05;
    SteinerTree expected;
    bool expected_throws = false;
    try {
      expected = reference_route_net(pins, obstacles, clearance);
    } catch (const std::runtime_error&) {
      expected_throws = true;
    }
    if (expected_throws) {
      ++unreachable;
      EXPECT_THROW(route_net(pins, obstacles, clearance), std::runtime_error);
      continue;
    }
    ++routed;
    EXPECT_TRUE(trees_identical(route_net(pins, obstacles, clearance),
                                expected));
  }
  // The generator must exercise both outcomes and both special shapes.
  EXPECT_GT(routed, 50);
  EXPECT_GT(unreachable, 10);
  EXPECT_GT(coincident, 0);
  EXPECT_GT(walled, 0);
}

TEST(GlobalRoute, RejectsRectCountMismatch) {
  const Placed p = place_on_grid(netlist::make_ota2(), 10);
  std::vector<geom::Rect> rects = p.rects;
  rects.pop_back();
  EXPECT_THROW(global_route(p.inst, rects), std::invalid_argument);
  rects.push_back(p.rects.back());
  rects.push_back(p.rects.back());
  EXPECT_THROW(global_route(p.inst, rects), std::invalid_argument);
  EXPECT_THROW(global_route(p.inst, {}), std::invalid_argument);
}

TEST(GlobalRoute, ThreadCountInvariant) {
  // A 200-block scenario with overlapping rows, so some nets fail and the
  // merge of failures is covered too.
  const auto sc =
      ingest::make_scenario(ingest::ScenarioSpec::parse("ota:200:5"));
  const Placed p = place_on_grid(sc.netlist, 16, 0.6);
  ASSERT_GE(p.inst.num_blocks(), 100);
  const int saved = num::num_threads();
  num::set_num_threads(1);
  const GlobalRoute serial = global_route(p.inst, p.rects);
  num::set_num_threads(4);
  const GlobalRoute parallel = global_route(p.inst, p.rects);
  num::set_num_threads(saved);
  EXPECT_GT(serial.trees.size(), 50u);
  EXPECT_GT(serial.failed_nets, 0);
  EXPECT_TRUE(routes_identical(serial, parallel));
}

}  // namespace
}  // namespace afp::route
