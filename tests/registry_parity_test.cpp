// Registry parity suite: every registered optimizer must (a) construct from
// its name plus default options and (b) round-trip its option map, and the
// registry-only pt-bstar must (c) produce bitwise-identical results to a
// direct legacy call into metaheur::run_pt on a Table I circuit at 1 and 4
// pool threads.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "metaheur/optimizer.hpp"
#include "netlist/library.hpp"
#include "numeric/parallel.hpp"

namespace afp {
namespace {

TEST(OptimizerRegistry, RegistersTheEightBuiltins) {
  const std::vector<std::string> expected = {"ga", "pso",      "pt", "pt-bstar",
                                             "rlsa", "rlsp",   "sa", "sab"};
  EXPECT_EQ(metaheur::optimizer_names(), expected);
  for (const auto& name : expected) {
    EXPECT_TRUE(metaheur::OptimizerRegistry::global().contains(name));
  }
  EXPECT_FALSE(metaheur::OptimizerRegistry::global().contains("nope"));
}

TEST(OptimizerRegistry, EveryBuiltinConstructsAndDescribes) {
  for (const auto& name : metaheur::optimizer_names()) {
    auto opt = metaheur::make_optimizer(name);
    EXPECT_EQ(opt->name(), name);
    const std::string enc = opt->encoding();
    EXPECT_TRUE(enc == "sequence-pair" || enc == "b*-tree") << name;
    EXPECT_FALSE(opt->describe().empty()) << name;
    for (const auto& spec : opt->describe()) {
      EXPECT_FALSE(spec.key.empty()) << name;
      EXPECT_FALSE(spec.value.empty()) << name << " " << spec.key;
      EXPECT_FALSE(spec.help.empty()) << name << " " << spec.key;
    }
  }
}

TEST(OptimizerRegistry, UnknownNameAndDuplicateThrow) {
  EXPECT_THROW(metaheur::make_optimizer("bogus"), std::invalid_argument);
  EXPECT_THROW(metaheur::OptimizerRegistry::global().add("sa", nullptr),
               std::invalid_argument);
}

TEST(OptimizerOptions, RoundTripAndValidation) {
  auto opt = metaheur::make_optimizer(
      "sa", {{"iterations", "123"}, {"t_start", "1.5"}});
  const auto opts = opt->options();
  EXPECT_EQ(opts.at("iterations"), "123");
  EXPECT_EQ(opts.at("t_start"), "1.5");
  // Reconfiguring from the round-tripped map is a no-op.
  auto copy = metaheur::make_optimizer("sa", opts);
  EXPECT_EQ(copy->options(), opts);

  EXPECT_THROW(metaheur::make_optimizer("sa", {{"bogus_key", "1"}}),
               std::invalid_argument);
  EXPECT_THROW(metaheur::make_optimizer("sa", {{"iterations", "12x"}}),
               std::invalid_argument);
  EXPECT_THROW(metaheur::make_optimizer("pt", {{"adaptive_swap", "maybe"}}),
               std::invalid_argument);
  // Range and finiteness are validated at configure time, not deep in run().
  EXPECT_THROW(metaheur::make_optimizer("pt", {{"replicas", "1"}}),
               std::invalid_argument);
  EXPECT_THROW(metaheur::make_optimizer("ga", {{"population", "0"}}),
               std::invalid_argument);
  EXPECT_THROW(metaheur::make_optimizer("sa", {{"iterations", "-5"}}),
               std::invalid_argument);
  EXPECT_THROW(metaheur::make_optimizer("sa", {{"t_start", "inf"}}),
               std::invalid_argument);
  EXPECT_THROW(metaheur::make_optimizer("sa", {{"t_end", "nan"}}),
               std::invalid_argument);
}

TEST(OptimizerOptions, BudgetOverridesPrimaryKnob) {
  const auto nl = netlist::make_ota_small();
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  const auto inst = floorplan::make_instance(g);
  auto by_option = metaheur::make_optimizer("sa", {{"iterations", "77"}});
  auto by_budget = metaheur::make_optimizer("sa");
  std::mt19937_64 r1(5), r2(5);
  const auto a = by_option->run(inst, {}, r1);
  const auto b = by_budget->run(inst, {/*iterations=*/77, 0.0}, r2);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.rects, b.rects);
}

/// pt-bstar (registry-only) against a hand-replicated legacy call into
/// metaheur::run_pt with the B*-tree representation, at 1 and 4 pool
/// threads.
TEST(RegistryParity, PtBstarMatchesDirectLegacyCall) {
  const auto nl = netlist::make_ota2();
  for (const int threads : {1, 4}) {
    num::set_num_threads(threads);
    core::PipelineConfig cfg;
    cfg.optimizer = "pt-bstar";
    cfg.options = {{"replicas", "3"}, {"iterations", "60"}};
    core::FloorplanPipeline pipe(cfg);
    std::mt19937_64 r_registry(42);
    const auto via_registry = pipe.run(nl, r_registry);

    // Legacy call: what pre-registry code did for PT over B*-trees.
    std::mt19937_64 r_legacy(42);
    const auto prep = pipe.prepare(nl, r_legacy);
    metaheur::PTParams p;
    p.representation = metaheur::Representation::kBStarTree;
    p.replicas = 3;
    p.iterations = 60;
    const auto legacy = metaheur::run_pt(prep.instance, p, r_legacy);
    ASSERT_EQ(via_registry.rects.size(), legacy.rects.size());
    for (std::size_t i = 0; i < legacy.rects.size(); ++i) {
      EXPECT_EQ(via_registry.rects[i], legacy.rects[i])
          << "rect " << i << " @" << threads << " threads";
    }
    EXPECT_EQ(via_registry.evaluations, legacy.evaluations);
  }
  num::set_num_threads(0);
}

}  // namespace
}  // namespace afp
