// Cross-module integration tests: checkpoint round-trips through training,
// determinism of the full pipeline, SPICE-text entry point, and failure
// injection.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/pipeline.hpp"
#include "core/training.hpp"
#include "ingest/spice_parser.hpp"
#include "netlist/library.hpp"
#include "nn/checkpoint.hpp"

namespace afp {
namespace {

std::string tmp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Checkpoint, PolicyRoundTripPreservesBehaviour) {
  std::mt19937_64 rng(1);
  rgcn::RewardModel encoder(rng);
  rl::ActorCritic policy(rl::PolicyConfig::fast(), rng);

  auto nl = netlist::make_ota1();
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  const auto task = rl::make_task(encoder, std::move(g));
  std::mt19937_64 r1(5);
  const auto before = rl::run_episode(policy, task, r1, true);

  const std::string path = tmp_path("afp_policy_ckpt.bin");
  nn::save_module(policy, path);

  // A fresh policy behaves differently; loading restores behaviour.
  std::mt19937_64 rng2(99);
  rl::ActorCritic restored(rl::PolicyConfig::fast(), rng2);
  nn::load_module(restored, path);
  std::mt19937_64 r2(5);
  const auto after = rl::run_episode(restored, task, r2, true);
  ASSERT_EQ(before.rects.size(), after.rects.size());
  for (std::size_t i = 0; i < before.rects.size(); ++i) {
    EXPECT_EQ(before.rects[i], after.rects[i]);
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, EncoderRoundTripPreservesEmbeddings) {
  std::mt19937_64 rng(2);
  rgcn::RewardModel encoder(rng);
  auto nl = netlist::make_bias1();
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  const float before = encoder.predict(g).item();

  const std::string path = tmp_path("afp_encoder_ckpt.bin");
  nn::save_module(encoder, path);
  std::mt19937_64 rng2(77);
  rgcn::RewardModel restored(rng2);
  EXPECT_NE(restored.predict(g).item(), before);
  nn::load_module(restored, path);
  EXPECT_FLOAT_EQ(restored.predict(g).item(), before);
  std::filesystem::remove(path);
}

TEST(Checkpoint, ArchitectureMismatchRejected) {
  std::mt19937_64 rng(3);
  rl::ActorCritic small(rl::PolicyConfig::fast(), rng);
  const std::string path = tmp_path("afp_mismatch_ckpt.bin");
  nn::save_module(small, path);
  rl::PolicyConfig big = rl::PolicyConfig::fast();
  big.feat_dim = 256;
  rl::ActorCritic other(big, rng);
  EXPECT_THROW(nn::load_module(other, path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Pipeline, DeterministicGivenSeed) {
  core::PipelineConfig cfg;
  cfg.optimizer = "sa";
  cfg.options = {{"iterations", "300"}};
  core::FloorplanPipeline pipe(cfg);
  std::mt19937_64 r1(11), r2(11);
  const auto a = pipe.run(netlist::make_ota2(), r1);
  const auto b = pipe.run(netlist::make_ota2(), r2);
  ASSERT_EQ(a.rects.size(), b.rects.size());
  for (std::size_t i = 0; i < a.rects.size(); ++i) {
    EXPECT_EQ(a.rects[i], b.rects[i]);
  }
  EXPECT_DOUBLE_EQ(a.eval.reward, b.eval.reward);
  EXPECT_DOUBLE_EQ(a.route.total_wirelength, b.route.total_wirelength);
}

TEST(Pipeline, RunsFromSpiceText) {
  // End to end from raw SPICE text rather than a library generator.
  const std::string text = netlist::make_ota_small().to_spice();
  const auto nl = ingest::parse_deck(text);
  std::mt19937_64 rng(4);
  core::PipelineConfig cfg;
  cfg.optimizer = "sa";
  cfg.options = {{"iterations", "300"}};
  core::FloorplanPipeline pipe(cfg);
  const auto res = pipe.run(nl, rng);
  EXPECT_EQ(res.rects.size(), 3u);
  EXPECT_EQ(res.route.failed_nets, 0);
}

TEST(Pipeline, ConstrainedRunSatisfiesConstraintsWhenComplete) {
  core::PipelineConfig cfg;
  cfg.constrained = true;
  cfg.optimizer = "sa";
  cfg.options = {{"iterations", "2500"}};
  core::FloorplanPipeline pipe(cfg);
  std::mt19937_64 rng(5);
  const auto res = pipe.run(netlist::make_ota_small(), rng);
  // SA may or may not satisfy the constraints (soft penalty), but the
  // evaluation must report it consistently.
  EXPECT_EQ(res.eval.constraints_ok,
            floorplan::constraints_satisfied(res.instance, res.rects, 1e-6));
}

TEST(Training, HistoriesAreConsistent) {
  core::TrainOptions opt = core::TrainOptions::fast(21);
  opt.hcl.circuits = {"ota_small"};
  opt.hcl.episodes_per_circuit = 6;
  const auto agent = core::train_agent(opt);
  ASSERT_FALSE(agent.rl_history.empty());
  for (const auto& s : agent.rl_history) {
    EXPECT_TRUE(std::isfinite(s.policy_loss));
    EXPECT_TRUE(std::isfinite(s.value_loss));
    EXPECT_GE(s.violation_rate, 0.0);
    EXPECT_LE(s.violation_rate, 1.0);
  }
  for (int stage : agent.stage_history) EXPECT_EQ(stage, 0);
}

TEST(Training, TrainedAgentSurvivesCheckpointCycle) {
  core::TrainOptions opt = core::TrainOptions::fast(22);
  opt.hcl.circuits = {"ota_small"};
  opt.hcl.episodes_per_circuit = 6;
  const auto agent = core::train_agent(opt);

  const std::string ppath = tmp_path("afp_agent_policy.bin");
  const std::string epath = tmp_path("afp_agent_encoder.bin");
  nn::save_module(*agent.policy, ppath);
  nn::save_module(*agent.encoder, epath);

  std::mt19937_64 rng(23);
  rgcn::RewardModel enc2(rng);
  rl::ActorCritic pol2(agent.policy->config(), rng);
  nn::load_module(enc2, epath);
  nn::load_module(pol2, ppath);

  auto nl = netlist::make_ota1();
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  const auto t1 = rl::make_task(*agent.encoder, g);
  const auto t2 = rl::make_task(enc2, g);
  std::mt19937_64 ra(9), rb(9);
  const auto ea = rl::run_episode(*agent.policy, t1, ra, true);
  const auto eb = rl::run_episode(pol2, t2, rb, true);
  ASSERT_EQ(ea.rects.size(), eb.rects.size());
  for (std::size_t i = 0; i < ea.rects.size(); ++i) {
    EXPECT_EQ(ea.rects[i], eb.rects[i]);
  }
  std::filesystem::remove(ppath);
  std::filesystem::remove(epath);
}

TEST(FailureInjection, CorruptCheckpointRejected) {
  const std::string path = tmp_path("afp_corrupt.bin");
  {
    std::ofstream os(path, std::ios::binary);
    os << "NOTAFPT-GARBAGE";
  }
  std::mt19937_64 rng(1);
  rl::ActorCritic policy(rl::PolicyConfig::fast(), rng);
  EXPECT_THROW(nn::load_module(policy, path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(FailureInjection, TruncatedCheckpointRejected) {
  std::mt19937_64 rng(1);
  rl::ActorCritic policy(rl::PolicyConfig::fast(), rng);
  const std::string path = tmp_path("afp_truncated.bin");
  nn::save_module(policy, path);
  // Truncate the file to half its size.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(nn::load_module(policy, path), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace afp
