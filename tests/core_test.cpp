#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "core/training.hpp"
#include "netlist/library.hpp"

namespace afp::core {
namespace {

PipelineConfig quick_config() {
  PipelineConfig cfg;
  cfg.optimizer = "sa";
  cfg.options = {{"iterations", "300"}};
  cfg.rl_attempts = 2;
  return cfg;
}

TEST(Pipeline, PrepareBuildsInstance) {
  std::mt19937_64 rng(1);
  FloorplanPipeline pipe(quick_config());
  const auto prep = pipe.prepare(netlist::make_ota2(), rng);
  EXPECT_EQ(prep.instance.num_blocks(), 8);
  EXPECT_GT(prep.instance.hpwl_ref, 0.0);
  EXPECT_GT(prep.recognition_s, 0.0);
  EXPECT_TRUE(prep.instance.constraints.empty());
}

TEST(Pipeline, PrepareWithConstraints) {
  std::mt19937_64 rng(2);
  PipelineConfig cfg = quick_config();
  cfg.constrained = true;
  FloorplanPipeline pipe(cfg);
  const auto prep = pipe.prepare(netlist::make_ota2(), rng);
  EXPECT_FALSE(prep.instance.constraints.empty());
}

TEST(Pipeline, BaselineEndToEnd) {
  std::mt19937_64 rng(3);
  FloorplanPipeline pipe(quick_config());
  const auto res = pipe.run(netlist::make_ota_small(), rng);
  EXPECT_EQ(res.rects.size(), 3u);
  EXPECT_DOUBLE_EQ(geom::total_pairwise_overlap(res.rects), 0.0);
  EXPECT_EQ(res.route.failed_nets, 0);
  EXPECT_FALSE(res.layout.wires.empty());
  EXPECT_GT(res.timings.floorplan_s, 0.0);
  EXPECT_GT(res.timings.total(), 0.0);
  EXPECT_TRUE(std::isfinite(res.eval.reward));
}

TEST(Pipeline, AgentEndToEnd) {
  std::mt19937_64 rng(5);
  rgcn::RewardModel encoder(rng);
  rl::ActorCritic policy(rl::PolicyConfig::fast(), rng);
  FloorplanPipeline pipe(quick_config());
  const auto res = pipe.run(netlist::make_ota_small(), policy, encoder, rng);
  EXPECT_EQ(res.rects.size(), 3u);
  EXPECT_DOUBLE_EQ(geom::total_pairwise_overlap(res.rects), 0.0);
  EXPECT_FALSE(res.layout.blocks.empty());
  // DRC and LVS reports exist (clean or not, they must be consistent).
  for (const auto& v : res.drc.violations) EXPECT_FALSE(v.rule.empty());
}

TEST(TrainOptions, Presets) {
  const auto fast = TrainOptions::fast(3);
  EXPECT_EQ(fast.seed, 3u);
  EXPECT_LT(fast.hcl.episodes_per_circuit, 100);
  const auto paper = TrainOptions::paper();
  EXPECT_EQ(paper.ppo.n_envs, 16);
  EXPECT_EQ(paper.hcl.episodes_per_circuit, 4096);
  EXPECT_EQ(paper.policy.feat_dim, 512);
}

TEST(TrainAgent, FastPresetTrainsEndToEnd) {
  TrainOptions opt = TrainOptions::fast(7);
  opt.hcl.circuits = {"ota_small", "bias_small"};
  opt.hcl.episodes_per_circuit = 4;
  const TrainedAgent agent = train_agent(opt);
  ASSERT_TRUE(agent.encoder);
  ASSERT_TRUE(agent.policy);
  EXPECT_FALSE(agent.rgcn_history.empty());
  EXPECT_FALSE(agent.rl_history.empty());
  EXPECT_EQ(agent.rl_history.size(), agent.stage_history.size());
  // The trained policy still produces valid floorplans.
  std::mt19937_64 rng(8);
  auto g = graphir::build_graph(netlist::make_ota1(),
                                structrec::recognize(netlist::make_ota1()));
  const auto task = rl::make_task(*agent.encoder, std::move(g));
  const auto ep = rl::run_episode(*agent.policy, task, rng);
  EXPECT_EQ(ep.rects.size(), 5u);
  EXPECT_DOUBLE_EQ(geom::total_pairwise_overlap(ep.rects), 0.0);
}

}  // namespace
}  // namespace afp::core
