// Property harness for the search evaluators (metaheur/eval_cache): over
// 200 seeds per (circuit, representation), long accept/reject move walks
// must score bitwise identically through the fast evaluator, the
// AFP_EVAL=check oracle (which recomputes the reference path on every call
// and throws std::logic_error on any cost or rect divergence), and a
// reference pack + sp_cost done here.  The Fenwick sequence-pair packer is
// also held bitwise to the O(n^2) pack_reference on random pairs of up to
// 1000 blocks.  Separately, searches that share a transposition cache must
// stay bitwise thread-invariant (1 vs 4 pool threads) and identical to
// cache-free runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "metaheur/eval_cache.hpp"
#include "metaheur/tempering.hpp"
#include "netlist/library.hpp"
#include "numeric/parallel.hpp"

namespace afp {
namespace {

constexpr int kSeeds = 200;
constexpr int kWalkLength = 40;

/// A `blocks`-block instance with seeded random 2-5 pin nets.  The Table I
/// circuits top out near 20 blocks, too few to exercise the packer's
/// Fenwick indexing at depth.
floorplan::Instance synthetic_instance(int blocks, std::uint64_t seed) {
  floorplan::Instance inst;
  inst.name = "synthetic" + std::to_string(blocks);
  std::mt19937_64 rng(seed);
  for (int b = 0; b < blocks; ++b) {
    floorplan::Block blk;
    blk.name = "b" + std::to_string(b);
    blk.area_um2 = 20.0 + 3.0 * static_cast<double>(b % 17);
    blk.shapes = floorplan::candidate_shapes(
        blk.area_um2, structrec::StructureType::kUnknown);
    inst.blocks.push_back(std::move(blk));
  }
  if (blocks >= 2) {
    std::uniform_int_distribution<int> pins(2, std::min(5, blocks));
    std::uniform_int_distribution<int> pick(0, blocks - 1);
    for (int n = 0; n < 2 * blocks; ++n) {
      std::vector<int> net;
      const int k = pins(rng);
      while (static_cast<int>(net.size()) < k) {
        const int b = pick(rng);
        if (std::find(net.begin(), net.end(), b) == net.end()) {
          net.push_back(b);
        }
      }
      inst.nets.push_back(std::move(net));
    }
  }
  inst.canvas_w = inst.canvas_h =
      geom::canvas_side(inst.total_block_area(), 11.0);
  inst.hpwl_ref = 100.0 * std::max(1, blocks);
  return inst;
}

floorplan::Instance instance_of(const std::string& name) {
  if (name == "synthetic250") return synthetic_instance(250, 2024);
  netlist::Netlist nl;
  for (const auto& e : netlist::circuit_registry()) {
    if (e.name == name) nl = e.make();
  }
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  return floorplan::make_instance(g);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool same_rect(const geom::Rect& a, const geom::Rect& b) {
  return same_bits(a.x, b.x) && same_bits(a.y, b.y) && same_bits(a.w, b.w) &&
         same_bits(a.h, b.h);
}

TEST(PackOracle, FenwickPackMatchesReferenceBitwise) {
  // One scratch serves every size, so stale entries from a larger packing
  // would show up in a smaller one.
  metaheur::SpScratch scratch;
  std::vector<geom::Rect> reused;
  for (const int n : {0, 1, 2, 17, 250, 1000}) {
    const auto inst = synthetic_instance(n, 11);
    std::mt19937_64 rng(static_cast<std::uint64_t>(n) + 5);
    const int trials = n >= 250 ? 4 : 40;
    for (int t = 0; t < trials; ++t) {
      const auto sp = metaheur::SequencePair::random(n, rng);
      for (const double spacing : {0.0, 0.7}) {
        const auto want = metaheur::pack_reference(inst, sp, spacing);
        const auto got = metaheur::pack(inst, sp, spacing);
        metaheur::pack_into(inst, sp, spacing, scratch, reused);
        ASSERT_EQ(want.size(), static_cast<std::size_t>(n));
        ASSERT_EQ(got.size(), want.size());
        ASSERT_EQ(reused.size(), want.size());
        for (std::size_t b = 0; b < want.size(); ++b) {
          ASSERT_TRUE(same_rect(got[b], want[b]) &&
                      same_rect(reused[b], want[b]))
              << "n " << n << " trial " << t << " spacing " << spacing
              << " block " << b;
        }
      }
    }
  }
}

/// Restores the process-wide eval mode on scope exit so test order (and the
/// CI AFP_EVAL=check leg) cannot leak a mode into unrelated tests.
class ScopedEvalMode {
 public:
  explicit ScopedEvalMode(metaheur::EvalMode m)
      : prev_(metaheur::eval_mode()) {
    metaheur::set_eval_mode(m);
  }
  ~ScopedEvalMode() { metaheur::set_eval_mode(prev_); }

 private:
  metaheur::EvalMode prev_;
};

struct RepCase {
  std::string circuit;
  metaheur::Representation rep;
  int seeds = kSeeds;
};

std::string case_name(const ::testing::TestParamInfo<RepCase>& info) {
  return info.param.circuit + "_" + metaheur::to_string(info.param.rep);
}

class EvalParityProperty : public ::testing::TestWithParam<RepCase> {};

/// One SA-shaped walk: candidate = accepted state + a burst of moves, with a
/// deterministic accept/reject pattern, so the evaluator's reused buffers
/// regularly hold a packing other than the proposed state's.  Every
/// evaluation is compared bitwise against a reference pack + sp_cost.
template <class State, class MutateFn, class EvalFn, class OracleFn>
void run_walk(State cur, MutateFn mutate, EvalFn eval, OracleFn oracle,
              std::mt19937_64& rng, int seed) {
  double cur_cost = 0.0;
  bool have_cur = false;
  std::uniform_int_distribution<int> burst(1, 3);
  for (int step = 0; step < kWalkLength; ++step) {
    State cand = cur;
    const int moves = burst(rng);
    for (int m = 0; m < moves; ++m) mutate(cand, rng);
    const double got = eval(cand);
    const double want = oracle(cand);
    ASSERT_TRUE(same_bits(got, want))
        << "seed " << seed << " step " << step << ": fast=" << got
        << " reference=" << want;
    if (!have_cur || got < cur_cost || step % 3 == 0) {
      cur = std::move(cand);
      cur_cost = got;
      have_cur = true;
    }
  }
}

TEST_P(EvalParityProperty, DeltaMatchesFullOverMoveWalks) {
  const auto& param = GetParam();
  const auto inst = instance_of(param.circuit);
  for (const auto mode :
       {metaheur::EvalMode::kDelta, metaheur::EvalMode::kCheck}) {
    ScopedEvalMode scoped(mode);
    for (int seed = 0; seed < param.seeds; ++seed) {
      std::mt19937_64 rng(static_cast<std::uint64_t>(seed) + 7);
      const double spacing = seed % 2 == 0 ? 0.0 : inst.canvas_w / 32.0;
      if (param.rep == metaheur::Representation::kBStarTree) {
        metaheur::BStarEvaluator ev(inst, spacing);
        run_walk(
            metaheur::BStarTree::random(inst.num_blocks(), rng),
            [](metaheur::BStarTree& t, std::mt19937_64& r) {
              std::uniform_int_distribution<int> d(
                  0, metaheur::kNumBStarMoves - 1);
              apply_bstar_move(t, static_cast<metaheur::BStarMove>(d(r)), r);
            },
            [&](const metaheur::BStarTree& t) { return ev.cost(t); },
            [&](const metaheur::BStarTree& t) {
              return metaheur::sp_cost(inst, pack_bstar(inst, t, spacing));
            },
            rng, seed);
      } else {
        metaheur::SpEvaluator ev(inst, spacing);
        run_walk(
            metaheur::SequencePair::random(inst.num_blocks(), rng),
            [](metaheur::SequencePair& s, std::mt19937_64& r) {
              std::uniform_int_distribution<int> d(0, metaheur::kNumMoves - 1);
              apply_move(s, static_cast<metaheur::Move>(d(r)), r);
            },
            [&](const metaheur::SequencePair& s) { return ev.cost(s); },
            [&](const metaheur::SequencePair& s) {
              return metaheur::sp_cost(inst,
                                       pack_reference(inst, s, spacing));
            },
            rng, seed);
      }
    }
  }
}

TEST_P(EvalParityProperty, TranspositionHitsVerifyUnderCheckMode) {
  // Two evaluators sharing one cache revisit the same states; in check mode
  // every hit's memoized value is verified bitwise against the oracle
  // inside the evaluator (a mismatch throws), so this walk passing means
  // the cache never served a wrong cost.
  const auto& param = GetParam();
  const auto inst = instance_of(param.circuit);
  ScopedEvalMode scoped(metaheur::EvalMode::kCheck);
  metaheur::TranspositionCache tt;
  for (int pass = 0; pass < 2; ++pass) {
    std::mt19937_64 rng(99);  // same seed: pass 2 replays pass 1's states
    if (param.rep == metaheur::Representation::kBStarTree) {
      metaheur::BStarEvaluator ev(inst, 0.0, &tt);
      auto t = metaheur::BStarTree::random(inst.num_blocks(), rng);
      for (int step = 0; step < kWalkLength; ++step) {
        std::uniform_int_distribution<int> d(0, metaheur::kNumBStarMoves - 1);
        apply_bstar_move(t, static_cast<metaheur::BStarMove>(d(rng)), rng);
        ev.cost(t);
      }
    } else {
      metaheur::SpEvaluator ev(inst, 0.0, &tt);
      auto s = metaheur::SequencePair::random(inst.num_blocks(), rng);
      for (int step = 0; step < kWalkLength; ++step) {
        std::uniform_int_distribution<int> d(0, metaheur::kNumMoves - 1);
        apply_move(s, static_cast<metaheur::Move>(d(rng)), rng);
        ev.cost(s);
      }
    }
  }
  EXPECT_GT(tt.hits(), 0);  // the replayed pass must actually hit
}

INSTANTIATE_TEST_SUITE_P(
    Representations, EvalParityProperty,
    ::testing::Values(
        RepCase{"ota2", metaheur::Representation::kSequencePair},
        RepCase{"ota2", metaheur::Representation::kBStarTree},
        RepCase{"bias2", metaheur::Representation::kSequencePair},
        RepCase{"bias2", metaheur::Representation::kBStarTree},
        RepCase{"synthetic250", metaheur::Representation::kSequencePair, 20},
        RepCase{"synthetic250", metaheur::Representation::kBStarTree, 20}),
    case_name);

void expect_same_result(const metaheur::BaselineResult& a,
                        const metaheur::BaselineResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.rects.size(), b.rects.size()) << what;
  for (std::size_t i = 0; i < a.rects.size(); ++i) {
    EXPECT_TRUE(same_bits(a.rects[i].x, b.rects[i].x) &&
                same_bits(a.rects[i].y, b.rects[i].y) &&
                same_bits(a.rects[i].w, b.rects[i].w) &&
                same_bits(a.rects[i].h, b.rects[i].h))
        << what << ": rect " << i;
  }
  EXPECT_TRUE(same_bits(a.eval.reward, b.eval.reward)) << what;
  EXPECT_EQ(a.evaluations, b.evaluations) << what;
}

TEST(TranspositionDeterminism, SharedCacheIsThreadInvariant) {
  // PT replicas step concurrently on the pool and share the job cache; the
  // ensemble must stay bitwise identical across thread counts — and
  // identical to a run with no cache at all, since memoized costs are pure
  // functions of the key.
  ScopedEvalMode scoped(metaheur::EvalMode::kDelta);
  const auto inst = instance_of("ota2");
  auto run_with = [&](int threads, metaheur::TranspositionCache* tt) {
    metaheur::PTParams p;
    p.replicas = 4;
    p.iterations = 200;
    p.tt = tt;
    num::set_num_threads(threads);
    std::mt19937_64 rng(42);
    auto r = run_pt(inst, p, rng);
    num::set_num_threads(0);  // restore the ambient default
    return r;
  };
  metaheur::TranspositionCache tt1, tt4;
  const auto r1 = run_with(1, &tt1);
  const auto r4 = run_with(4, &tt4);
  expect_same_result(r1, r4, "pt 1 vs 4 threads, shared tt");
  const auto bare = run_with(4, nullptr);
  expect_same_result(r1, bare, "pt with tt vs without");
}

TEST(TranspositionDeterminism, CacheDoesNotPerturbSa) {
  // A single SA chain with and without the memo must agree bitwise, in both
  // the delta mode and under the check oracle.
  const auto inst = instance_of("bias2");
  for (const auto mode :
       {metaheur::EvalMode::kDelta, metaheur::EvalMode::kCheck}) {
    ScopedEvalMode scoped(mode);
    metaheur::SAParams p;
    p.iterations = 400;
    auto run_with = [&](metaheur::TranspositionCache* tt) {
      metaheur::SAParams q = p;
      q.tt = tt;
      std::mt19937_64 rng(7);
      return run_sa(inst, q, rng);
    };
    metaheur::TranspositionCache tt;
    expect_same_result(run_with(&tt), run_with(nullptr),
                       std::string("sa, mode ") + to_string(mode));
  }
}

}  // namespace
}  // namespace afp
