// Focused tests for detailed-routing mechanics (per-net pins, lane
// assignment), gradient flow through the full agent, and assorted
// smaller contracts added after the first test pass.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "netlist/library.hpp"
#include "rl/agent.hpp"

namespace afp {
namespace {

TEST(BlockPinForNet, SpreadsAlongTheEdge) {
  const geom::Rect r{0, 0, 12, 6};
  // North edge: x varies with net index, y fixed at the top.
  std::set<double> xs;
  for (std::size_t ni = 0; ni < 5; ++ni) {
    const auto p = route::block_pin_for_net(r, 0, ni);
    EXPECT_DOUBLE_EQ(p.y, 6.0);
    EXPECT_GT(p.x, 0.0);
    EXPECT_LT(p.x, 12.0);
    xs.insert(p.x);
  }
  EXPECT_EQ(xs.size(), 5u);  // five distinct slots
  // East edge: y varies instead.
  const auto p0 = route::block_pin_for_net(r, 1, 0);
  const auto p1 = route::block_pin_for_net(r, 1, 1);
  EXPECT_DOUBLE_EQ(p0.x, 12.0);
  EXPECT_NE(p0.y, p1.y);
}

TEST(BlockPinForNet, SlotsRepeatModulo5) {
  const geom::Rect r{0, 0, 10, 10};
  const auto a = route::block_pin_for_net(r, 0, 2);
  const auto b = route::block_pin_for_net(r, 0, 7);
  EXPECT_EQ(a, b);
}

TEST(LayoutLanes, CollinearNetsSeparate) {
  // Two nets whose conduits global routing would put on the same line end
  // up on different lanes: no same-layer overlap between their wires.
  netlist::Netlist nl = netlist::make_ota_small();
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  auto inst = floorplan::make_instance(g);
  std::vector<geom::Rect> rects;
  double x = 0.0;
  for (const auto& b : inst.blocks) {
    rects.push_back({x, 0.0, b.shapes[1].w, b.shapes[1].h});
    x += b.shapes[1].w + 3.0;
  }
  const auto gr = route::global_route(inst, rects);
  const auto layout = layoutgen::generate_layout(inst, rects, gr);
  for (std::size_t i = 0; i < layout.wires.size(); ++i) {
    for (std::size_t j = i + 1; j < layout.wires.size(); ++j) {
      const auto& a = layout.wires[i];
      const auto& b = layout.wires[j];
      if (a.net == b.net || a.layer != b.layer) continue;
      EXPECT_FALSE(a.rect.overlaps(b.rect))
          << a.net << " vs " << b.net;
    }
  }
}

TEST(LayoutLanes, PinPadsCoverLaneShifts) {
  // Every net's wires must touch every one of its pin pads (no opens), for
  // several circuits and placements.
  std::mt19937_64 rng(5);
  for (const char* name : {"ota_small", "ota1", "driver"}) {
    netlist::Netlist nl;
    for (const auto& e : netlist::circuit_registry()) {
      if (e.name == name) nl = e.make();
    }
    auto g = graphir::build_graph(nl, structrec::recognize(nl));
    auto inst = floorplan::make_instance(g);
    metaheur::SAParams p;
    p.iterations = 400;
    const auto base = metaheur::run_sa(inst, p, rng);
    const auto gr = route::global_route(inst, base.rects);
    if (gr.failed_nets > 0) continue;
    const auto layout = layoutgen::generate_layout(inst, base.rects, gr);
    const auto lvs = layoutgen::run_lvs(layout);
    EXPECT_TRUE(lvs.open_nets.empty())
        << name << ": " << (lvs.open_nets.empty() ? "" : lvs.open_nets[0]);
  }
}

TEST(ActorCritic, GradientsReachEveryParameter) {
  std::mt19937_64 rng(3);
  rl::ActorCritic net(rl::PolicyConfig::fast(), rng);
  num::Tensor masks = num::Tensor::randn({2, 6, 32, 32}, rng, 0.3f);
  num::Tensor node = num::Tensor::randn({2, 32}, rng);
  num::Tensor graph = num::Tensor::randn({2, 32}, rng);
  const auto out = net.forward(masks, node, graph);
  // Combined loss touching both heads.
  num::Tensor loss =
      num::mean_all(num::square(out.logits)) + num::mean_all(num::square(out.value));
  for (auto& p : net.parameters()) p.zero_grad();
  loss.backward();
  int params_with_grad = 0, total = 0;
  for (const auto& p : net.parameters()) {
    ++total;
    double sq = 0.0;
    for (float gv : p.grad()) sq += static_cast<double>(gv) * gv;
    if (sq > 0.0) ++params_with_grad;
  }
  EXPECT_EQ(params_with_grad, total);
}

TEST(RewardModel, GradientsReachEncoder) {
  std::mt19937_64 rng(4);
  rgcn::RewardModel model(rng);
  auto nl = netlist::make_ota2();
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  num::Tensor pred = model.predict(g);
  for (auto& p : model.parameters()) p.zero_grad();
  num::mean_all(num::square(pred)).backward();
  int nonzero = 0, total = 0;
  for (const auto& p : model.parameters()) {
    ++total;
    double sq = 0.0;
    for (float gv : p.grad()) sq += static_cast<double>(gv) * gv;
    if (sq > 0.0) ++nonzero;
  }
  // All encoder relation weights for relations present in the graph plus
  // the head must receive gradient; empty relations (no such edges) get
  // none.  At minimum the vast majority of parameters are reached.
  EXPECT_GT(nonzero, total / 2);
}

TEST(StageTimings, TotalSumsStages) {
  core::StageTimings t;
  t.recognition_s = 0.5;
  t.floorplan_s = 1.5;
  t.route_s = 0.25;
  t.layout_s = 0.75;
  EXPECT_DOUBLE_EQ(t.total(), 3.0);
}

TEST(NewCircuits, FoldedCascodeGraphShape) {
  netlist::Netlist nl = netlist::make_folded_cascode();
  const auto rec = structrec::recognize(nl);
  EXPECT_EQ(rec.structures.size(), 10u);
  int pairs = 0;
  for (const auto& s : rec.structures) {
    pairs += structrec::is_matched_pair(s.type) ? 1 : 0;
  }
  EXPECT_EQ(pairs, 3);  // diff pair + both cascode pairs
  auto g = graphir::build_graph(nl, rec);
  const auto spec = graphir::default_constraints(g);
  EXPECT_EQ(spec.self_syms.size(), 3u);
}

TEST(NewCircuits, EndToEndPipeline) {
  std::mt19937_64 rng(6);
  core::PipelineConfig cfg;
  cfg.optimizer = "sa";
  cfg.options = {{"iterations", "400"}};
  core::FloorplanPipeline pipe(cfg);
  for (auto make : {netlist::make_folded_cascode, netlist::make_charge_pump,
                    netlist::make_bandgap}) {
    const auto res = pipe.run(make(), rng);
    EXPECT_DOUBLE_EQ(geom::total_pairwise_overlap(res.rects), 0.0);
    EXPECT_EQ(res.route.failed_nets, 0) << res.instance.name;
    EXPECT_TRUE(res.lvs.open_nets.empty()) << res.instance.name;
  }
}

TEST(Metaheur, AutoSpacingScalesWithCanvas) {
  // The resolved auto spacing equals one grid cell: larger circuits get
  // proportionally larger routing margins.
  std::mt19937_64 rng(7);
  auto small_nl = netlist::make_ota_small();
  auto big_nl = netlist::make_bias2();
  auto gs = graphir::build_graph(small_nl, structrec::recognize(small_nl));
  auto gb = graphir::build_graph(big_nl, structrec::recognize(big_nl));
  const auto is = floorplan::make_instance(gs);
  const auto ib = floorplan::make_instance(gb);
  metaheur::SAParams p;
  p.iterations = 150;
  const auto rs = metaheur::run_sa(is, p, rng);
  const auto rb = metaheur::run_sa(ib, p, rng);
  // Indirect check: both produce legal floorplans whose bounding box
  // exceeds pure block area (spacing reserved).
  EXPECT_GT(geom::bounding_box(rs.rects).area(), is.total_block_area());
  EXPECT_GT(geom::bounding_box(rb.rects).area(), ib.total_block_area());
}

}  // namespace
}  // namespace afp
