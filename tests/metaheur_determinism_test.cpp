// Determinism tests for the parallel metaheuristics: SA multi-restart, GA
// and PSO (parallel population scoring) and B*-tree SA multi-restart must
// produce bitwise-identical best cost and layout whether the shared pool
// runs 1 or 4 threads, and seeded runs must be reproducible across repeats
// and, through pinned golden results, across commits.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "ingest/scenario.hpp"
#include "metaheur/bstar.hpp"
#include "metaheur/parallel_search.hpp"
#include "metaheur/tempering.hpp"
#include "netlist/library.hpp"
#include "numeric/parallel.hpp"

namespace afp::metaheur {
namespace {

floorplan::Instance instance_of(const netlist::Netlist& nl) {
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  return floorplan::make_instance(g);
}

/// Best of `opt.restarts` runs of the serial search `run` (run_sa, run_ga,
/// run_sa_bstar, run_pt) through run_multistart.
template <class Params>
BaselineResult multistart(
    BaselineResult (*run)(const floorplan::Instance&, const Params&,
                          std::mt19937_64&),
    const floorplan::Instance& inst, const Params& p,
    const MultiStartOptions& opt) {
  return run_multistart(
      inst, [&](int, std::mt19937_64& rng) { return run(inst, p, rng); },
      opt);
}

void expect_identical(const BaselineResult& a, const BaselineResult& b,
                      const char* what) {
  EXPECT_EQ(a.method, b.method) << what;
  EXPECT_EQ(a.evaluations, b.evaluations) << what;
  // Bitwise-equal reward and layout: the packed rectangles are pure doubles
  // computed from the same candidate, so any drift means the search path
  // diverged.
  EXPECT_EQ(a.eval.reward, b.eval.reward) << what;
  EXPECT_EQ(a.eval.hpwl, b.eval.hpwl) << what;
  ASSERT_EQ(a.rects.size(), b.rects.size()) << what;
  for (std::size_t i = 0; i < a.rects.size(); ++i)
    EXPECT_EQ(a.rects[i], b.rects[i]) << what << " rect " << i;
}

/// Runs `search` under 1 and 4 pool threads plus a repeat, and requires all
/// three results to be identical.
void check_thread_invariance(
    const std::function<BaselineResult()>& search, const char* what) {
  num::set_num_threads(1);
  const BaselineResult r1 = search();
  const BaselineResult r1_repeat = search();
  num::set_num_threads(4);
  const BaselineResult r4 = search();
  num::set_num_threads(0);  // restore the ambient default
  expect_identical(r1, r1_repeat, (std::string(what) + " repeat").c_str());
  expect_identical(r1, r4, (std::string(what) + " 1-vs-4 threads").c_str());
}

TEST(RestartRng, StreamsAreStableAndDistinct) {
  auto a = restart_rng(7, 0);
  auto b = restart_rng(7, 0);
  EXPECT_EQ(a(), b());  // same (seed, restart) -> same stream
  auto c = restart_rng(7, 1);
  auto d = restart_rng(8, 0);
  std::mt19937_64 a2 = restart_rng(7, 0);
  EXPECT_NE(a2(), c());
  EXPECT_NE(a2(), d());
}

TEST(MultiStart, RejectsZeroRestarts) {
  const auto inst = instance_of(netlist::make_ota_small());
  EXPECT_THROW(multistart(run_sa, inst, SAParams{}, {0, 1}),
               std::invalid_argument);
}

TEST(MultiStart, SaIsThreadCountInvariant) {
  const auto inst = instance_of(netlist::make_ota2());
  SAParams p;
  p.iterations = 600;
  check_thread_invariance(
      [&] { return multistart(run_sa, inst, p, {4, 11}); }, "SA x4");
}

TEST(MultiStart, BStarSaIsThreadCountInvariant) {
  const auto inst = instance_of(netlist::make_bias1());
  BStarSAParams p;
  p.iterations = 600;
  check_thread_invariance(
      [&] { return multistart(run_sa_bstar, inst, p, {4, 5}); },
      "SA-B* x4");
}

TEST(ParallelPopulations, GaIsThreadCountInvariant) {
  const auto inst = instance_of(netlist::make_ota2());
  GAParams p;
  p.population = 10;
  p.generations = 8;
  check_thread_invariance(
      [&] {
        std::mt19937_64 rng(33);  // fresh stream per run
        return run_ga(inst, p, rng);
      },
      "GA");
}

TEST(ParallelPopulations, PsoIsThreadCountInvariant) {
  const auto inst = instance_of(netlist::make_ota2());
  PSOParams p;
  p.particles = 8;
  p.iterations = 10;
  check_thread_invariance(
      [&] {
        std::mt19937_64 rng(44);
        return run_pso(inst, p, rng);
      },
      "PSO");
}

TEST(MultiStart, GaWrapperIsThreadCountInvariant) {
  const auto inst = instance_of(netlist::make_ota_small());
  GAParams p;
  p.population = 8;
  p.generations = 5;
  check_thread_invariance(
      [&] { return multistart(run_ga, inst, p, {3, 9}); }, "GA x3");
}

// ------------------------------------------------ parallel tempering ---

TEST(Tempering, SwapProbabilityMatchesHandComputedReference) {
  // P(swap) = min(1, exp((1/Ti - 1/Tj)(Ci - Cj))).  Hand-computed cases:
  //  Ti=0.5, Tj=1.0, Ci=3, Cj=5: exponent (2-1)(3-5) = -2  -> e^-2
  EXPECT_DOUBLE_EQ(pt_swap_probability(3.0, 5.0, 0.5, 1.0), std::exp(-2.0));
  //  Ti=0.5, Tj=1.0, Ci=5, Cj=3: exponent (2-1)(5-3) = +2  -> clipped to 1
  EXPECT_DOUBLE_EQ(pt_swap_probability(5.0, 3.0, 0.5, 1.0), 1.0);
  //  Ti=0.25, Tj=2.0, Ci=1.5, Cj=1.0: (4-0.5)(0.5) = 1.75 -> 1
  EXPECT_DOUBLE_EQ(pt_swap_probability(1.5, 1.0, 0.25, 2.0), 1.0);
  //  Symmetric temperatures never reject: exponent 0 -> 1
  EXPECT_DOUBLE_EQ(pt_swap_probability(4.0, 9.0, 1.0, 1.0), 1.0);
  //  Ti=1, Tj=4, Ci=2, Cj=10: (1-0.25)(-8) = -6 -> e^-6
  EXPECT_DOUBLE_EQ(pt_swap_probability(2.0, 10.0, 1.0, 4.0), std::exp(-6.0));
}

TEST(Tempering, GeometricLadderIsMonotoneAndGeometric) {
  const auto t = geometric_ladder(1e-3, 2.0, 6);
  ASSERT_EQ(t.size(), 6u);
  EXPECT_DOUBLE_EQ(t.front(), 1e-3);
  EXPECT_DOUBLE_EQ(t.back(), 2.0);
  for (std::size_t k = 1; k < t.size(); ++k) {
    EXPECT_GT(t[k], t[k - 1]) << "rung " << k;
  }
  // Constant ratio between adjacent rungs (geometric schedule).
  const double ratio = t[1] / t[0];
  for (std::size_t k = 2; k < t.size(); ++k) {
    EXPECT_NEAR(t[k] / t[k - 1], ratio, 1e-9) << "rung " << k;
  }
  EXPECT_THROW(geometric_ladder(0.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(geometric_ladder(2.0, 1.0, 4), std::invalid_argument);
}

TEST(Tempering, AutoHotTemperatureTracksInitialCostSpread) {
  EXPECT_DOUBLE_EQ(auto_hot_temperature({3.0, 8.5, 4.0}), 5.5);
  EXPECT_DOUBLE_EQ(auto_hot_temperature({2.0, 2.1}), 1.0);  // floored
  EXPECT_DOUBLE_EQ(auto_hot_temperature({}), 1.0);
}

TEST(Tempering, ReplicaStreamsAreStableDistinctAndSeparated) {
  auto a = replica_rng(7, 0);
  auto b = replica_rng(7, 0);
  EXPECT_EQ(a(), b());  // same (seed, replica) -> same stream
  auto c = replica_rng(7, 1);
  auto d = replica_rng(8, 0);
  auto swap_stream = replica_rng(7, -1);
  std::mt19937_64 a2 = replica_rng(7, 0);
  EXPECT_NE(a2(), c());
  EXPECT_NE(a2(), d());
  EXPECT_NE(a2(), swap_stream());
  // Domain separation from the multi-restart streams.
  auto restart = restart_rng(7, 0);
  std::mt19937_64 a3 = replica_rng(7, 0);
  EXPECT_NE(a3(), restart());
}

TEST(Tempering, RejectsDegenerateParams) {
  const auto inst = instance_of(netlist::make_ota_small());
  std::mt19937_64 rng(1);
  PTParams p;
  p.replicas = 1;
  EXPECT_THROW(run_pt(inst, p, rng), std::invalid_argument);
  p = {};
  p.swap_interval = 0;
  EXPECT_THROW(run_pt(inst, p, rng), std::invalid_argument);
  p = {};
  p.t_hot = 1e-4;  // below t_cold
  EXPECT_THROW(run_pt(inst, p, rng), std::invalid_argument);
  // NaN must not slip through the ordered comparisons.
  p = {};
  p.t_start = std::nan("");
  EXPECT_THROW(run_pt(inst, p, rng), std::invalid_argument);
  p = {};
  p.t_cold = std::nan("");
  EXPECT_THROW(run_pt(inst, p, rng), std::invalid_argument);
  p = {};
  p.hot_factor = std::nan("");
  EXPECT_THROW(run_pt(inst, p, rng), std::invalid_argument);
  p = {};
  p.budget_skew = std::nan("");
  EXPECT_THROW(run_pt(inst, p, rng), std::invalid_argument);
}

TEST(Annealing, RejectsDegenerateSchedules) {
  // A non-positive, NaN or rising schedule would anneal through NaN or
  // inverted temperatures (t_end < 0 makes every one NaN); SA over both
  // encodings and RL-SA reject it the way run_pt does.
  const auto inst = instance_of(netlist::make_ota_small());
  std::mt19937_64 rng(1);
  struct Bad {
    int iterations;
    double t_start, t_end;
  };
  const Bad bad[] = {{100, 2.0, -1.0},
                     {100, 0.0, 1e-3},
                     {100, 1.0, 2.0},
                     {100, 2.0, 0.0},
                     {100, std::nan(""), 1e-3},
                     {-1, 2.0, 1e-3}};
  for (const Bad& b : bad) {
    SAParams sa;
    sa.iterations = b.iterations;
    sa.t_start = b.t_start;
    sa.t_end = b.t_end;
    EXPECT_THROW(run_sa(inst, sa, rng), std::invalid_argument);
    EXPECT_THROW(run_sa_bstar(inst, sa, rng), std::invalid_argument);
    RLSAParams rl;
    rl.iterations = b.iterations;
    rl.t_start = b.t_start;
    rl.t_end = b.t_end;
    EXPECT_THROW(run_rlsa(inst, rl, rng), std::invalid_argument);
  }
  // A flat schedule and an empty budget stay valid.
  SAParams flat;
  flat.iterations = 0;
  flat.t_start = flat.t_end = 0.5;
  EXPECT_NO_THROW(run_sa(inst, flat, rng));
  EXPECT_NO_THROW(run_sa_bstar(inst, flat, rng));
}

TEST(Tempering, PtIsThreadCountInvariant) {
  const auto inst = instance_of(netlist::make_ota2());
  PTParams p;
  p.replicas = 6;
  p.iterations = 120;
  p.swap_interval = 8;
  check_thread_invariance(
      [&] {
        std::mt19937_64 rng(17);
        return run_pt(inst, p, rng);
      },
      "PT");
}

TEST(Tempering, PtBStarIsThreadCountInvariant) {
  const auto inst = instance_of(netlist::make_bias1());
  PTParams p;
  p.replicas = 5;
  p.iterations = 100;
  p.swap_interval = 10;
  p.representation = Representation::kBStarTree;
  check_thread_invariance(
      [&] {
        std::mt19937_64 rng(23);
        return run_pt(inst, p, rng);
      },
      "PT-B*");
}

TEST(Tempering, AdaptiveSwapIsThreadCountInvariant) {
  const auto inst = instance_of(netlist::make_ota2());
  PTParams p;
  p.replicas = 4;
  p.iterations = 160;
  p.swap_interval = 4;
  p.adaptive_swap = true;
  check_thread_invariance(
      [&] {
        std::mt19937_64 rng(29);
        return run_pt(inst, p, rng);
      },
      "PT adaptive");
}

TEST(Tempering, MultiStartPtIsThreadCountInvariant) {
  const auto inst = instance_of(netlist::make_ota_small());
  PTParams p;
  p.replicas = 4;
  p.iterations = 80;
  check_thread_invariance(
      [&] { return multistart(run_pt, inst, p, {3, 13}); }, "PT x3");
}

TEST(Tempering, BestIsNoWorseThanEveryReplicaStart) {
  // The returned best must beat (or match) each replica's initial state:
  // the chains only ever improve their per-replica best.
  const auto inst = instance_of(netlist::make_ota2());
  PTParams p;
  p.replicas = 6;
  p.iterations = 200;
  std::mt19937_64 rng(31);
  const auto res = run_pt(inst, p, rng);
  const double best = sp_cost(inst, res.rects);
  const double spacing = inst.canvas_w / 32.0;
  std::mt19937_64 seed_rng(31);
  const std::uint64_t base_seed = seed_rng();
  for (int k = 0; k < p.replicas; ++k) {
    auto rrng = replica_rng(base_seed, k);
    const auto sp = SequencePair::random(inst.num_blocks(), rrng);
    EXPECT_GE(sp_cost(inst, pack(inst, sp, spacing)), best - 1e-12)
        << "replica " << k;
  }
  EXPECT_EQ(res.evaluations,
            static_cast<long>(p.replicas) * (1 + p.iterations));
  EXPECT_EQ(res.method, "PT");
}

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// FNV-1a over the raw bits of every rect field, in block order.
std::uint64_t rect_hash(const std::vector<geom::Rect>& rects) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& r : rects) {
    for (const double d : {r.x, r.y, r.w, r.h}) {
      const std::uint64_t u = bits_of(d);
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (u >> (8 * byte)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

/// One short fixed-seed run of `method` (a registry key) on `inst`.
BaselineResult run_golden(const std::string& method,
                          const floorplan::Instance& inst) {
  std::mt19937_64 rng(20241019);
  if (method == "sa") {
    SAParams p;
    p.iterations = 300;
    return run_sa(inst, p, rng);
  }
  if (method == "sab") {
    BStarSAParams p;
    p.iterations = 300;
    return run_sa_bstar(inst, p, rng);
  }
  if (method == "rlsa") {
    RLSAParams p;
    p.iterations = 300;
    return run_rlsa(inst, p, rng);
  }
  if (method == "rlsp") {
    RLSPParams p;
    p.episodes = 10;
    p.steps_per_episode = 25;
    return run_rlsp(inst, p, rng);
  }
  if (method == "ga") {
    GAParams p;
    p.population = 12;
    p.generations = 20;
    return run_ga(inst, p, rng);
  }
  if (method == "pso") {
    PSOParams p;
    p.particles = 10;
    p.iterations = 20;
    return run_pso(inst, p, rng);
  }
  PTParams p;
  p.replicas = 3;
  p.iterations = 100;
  if (method == "pt-bstar") p.representation = Representation::kBStarTree;
  return run_pt(inst, p, rng);
}

// Every other bitwise test compares two runs of the same build, so a change
// that reorders one RNG draw or one floating-point operation passes them
// all.  These constants pin the best cost bits and a hash of the layout
// bits across commits.  They hold for x86-64 with libstdc++ and glibc's
// libm (the distributions and exp/pow are implementation-defined); a
// deliberate change to a search's trajectory must update them.
TEST(SearchGolden, BestResultsArePinned) {
  struct Golden {
    const char* method;
    const char* circuit;
    std::uint64_t cost_bits;
    std::uint64_t rects;
    long evaluations;
  };
  const Golden golden[] = {
      {"sa", "ota2", 0x3ff08810eaeff4e8ull, 0x7ba4b5c89c55a829ull, 301},
      {"sab", "ota2", 0x3fee530859ee82b9ull, 0x84e784ad4eef09d1ull, 301},
      {"pt", "ota2", 0x3fcea7759ea41530ull, 0xf5d7d4b015e9bbf7ull, 303},
      {"pt-bstar", "ota2", 0x3fac1ee0431dc080ull, 0x417ef3ce63eae63aull, 303},
      {"rlsa", "ota2", 0x3fee07925e765df5ull, 0x4fa6e4545b6a584cull, 301},
      {"rlsp", "ota2", 0x3ffcfb22300308bfull, 0x6c41943f3886ab82ull, 261},
      {"ga", "ota2", 0x3fe29d05abf28ba2ull, 0x1bd71fb18f02c806ull, 232},
      {"pso", "ota2", 0x3fed5aa6958c99d2ull, 0x31b7d7f0c7312149ull, 210},
      {"sa", "bias2", 0x401e1e54f78dedbcull, 0x6652bdfe5e385fe7ull, 301},
      {"sab", "bias2", 0x40214b43f7cb0dbcull, 0xbfbde441612e92f9ull, 301},
      {"pt", "bias2", 0x401e3f1cbd40db8eull, 0x5ff1f3be2447b68cull, 303},
      {"pt-bstar", "bias2", 0x401c40dbfe7367a4ull, 0xb9f3ecffde9be4c5ull, 303},
      {"rlsa", "bias2", 0x402360105ea3a84cull, 0xb773600239b5460full, 301},
      {"rlsp", "bias2", 0x4022790da130b59aull, 0x6abbaec9194f404full, 261},
      {"ga", "bias2", 0x40235843a4736936ull, 0xdc18f0dc12bed46full, 232},
      {"pso", "bias2", 0x4024aec3a6ba4d0aull, 0x81f5f8fc95b7b560ull, 210},
  };
  const auto ota2 = instance_of(netlist::make_ota2());
  const auto bias2 = instance_of(netlist::make_bias2());
  for (const Golden& g : golden) {
    const auto& inst = std::strcmp(g.circuit, "ota2") == 0 ? ota2 : bias2;
    const BaselineResult r = run_golden(g.method, inst);
    const std::uint64_t cost = bits_of(sp_cost(inst, r.rects));
    const std::uint64_t rects = rect_hash(r.rects);
    // Printed in table form so an intended change can be re-pinned.
    char row[160];
    std::snprintf(row, sizeof(row),
                  "{\"%s\", \"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64
                  "ull, %ld},",
                  g.method, g.circuit, cost, rects, r.evaluations);
    EXPECT_EQ(cost, g.cost_bits) << row;
    EXPECT_EQ(rects, g.rects) << row;
    EXPECT_EQ(r.evaluations, g.evaluations) << row;
  }
  // The HPWL-reference SA that sets every job's hpwl_ref, at a size where
  // the packer's O(n log n) indexing is exercised.
  const auto ota300 = instance_of(
      ingest::make_scenario(ingest::ScenarioSpec::parse("ota:300:1")).netlist);
  std::mt19937_64 rng(20241019);
  const std::uint64_t ref = bits_of(estimate_hpwl_min(ota300, rng));
  EXPECT_EQ(ref, 0x40cca63803e79831ull) << "hpwl_ref bits 0x" << std::hex << ref;
}

TEST(MultiStart, BestOfRestartsIsNoWorseThanAnySingleRestart) {
  const auto inst = instance_of(netlist::make_ota2());
  SAParams p;
  p.iterations = 500;
  const MultiStartOptions opt{4, 21};
  const auto multi = multistart(run_sa, inst, p, opt);
  const double multi_cost = sp_cost(inst, multi.rects);
  long total_evals = 0;
  for (int k = 0; k < opt.restarts; ++k) {
    auto rng = restart_rng(opt.base_seed, k);
    const auto single = run_sa(inst, p, rng);
    EXPECT_GE(sp_cost(inst, single.rects), multi_cost - 1e-12)
        << "restart " << k;
    total_evals += single.evaluations;
  }
  EXPECT_EQ(multi.evaluations, total_evals);
  EXPECT_EQ(multi.method, "SAx4");
}

}  // namespace
}  // namespace afp::metaheur
