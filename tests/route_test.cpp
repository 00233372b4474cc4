#include <gtest/gtest.h>

#include "graphir/graph.hpp"
#include "ingest/scenario.hpp"
#include "netlist/library.hpp"
#include "route/oarsmt.hpp"
#include "structrec/structrec.hpp"

namespace afp::route {
namespace {

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
    auto g = graphir::build_graph(nl, structrec::recognize(nl));
    auto inst = floorplan::make_instance(g);
    std::vector<geom::Rect> rects;
    double x = 0.0, y = 0.0, row_h = 0.0;
    int col = 0;
    for (const auto& b : inst.blocks) {
      // 10-wide grid of blocks so windows genuinely exclude far obstacles.
      rects.push_back({x, y, b.shapes[1].w, b.shapes[1].h});
      x += b.shapes[1].w + 1.0;
      row_h = std::max(row_h, b.shapes[1].h);
      if (++col == 10) {
        col = 0;
        x = 0.0;
        y += row_h + 1.0;
        row_h = 0.0;
      }
    }
    const auto gr = global_route(inst, rects);
    EXPECT_EQ(gr.failed_nets, 0);
    EXPECT_GT(gr.total_wirelength, 0.0);
    std::size_t multipin = 0;
    for (const auto& net : inst.nets) multipin += net.size() >= 2 ? 1 : 0;
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

}  // namespace
}  // namespace afp::route
