#include "metaheur/eval_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "metaheur/parallel_search.hpp"

namespace afp::metaheur {

namespace {

EvalMode parse_eval_mode(const char* s) {
  const std::string v = s == nullptr ? "" : s;
  if (v.empty() || v == "delta") return EvalMode::kDelta;
  if (v == "full") return EvalMode::kFull;
  if (v == "check") return EvalMode::kCheck;
  std::fprintf(stderr, "afp: unknown AFP_EVAL=%s, using delta\n", v.c_str());
  return EvalMode::kDelta;
}

// -1 = uninitialized; lazily reads AFP_EVAL on first use (simd_parity
// pattern: an env probe plus a test override through the same atomic).
std::atomic<int> g_eval_mode{-1};

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

bool same_bits(double a, double b) { return bits_of(a) == bits_of(b); }

bool same_rect(const geom::Rect& a, const geom::Rect& b) {
  return same_bits(a.x, b.x) && same_bits(a.y, b.y) && same_bits(a.w, b.w) &&
         same_bits(a.h, b.h);
}

[[noreturn]] void parity_failure(const char* what, double full, double delta) {
  throw std::logic_error(std::string("eval_cache parity violation (") + what +
                         "): full=" + std::to_string(full) +
                         " delta=" + std::to_string(delta));
}

void check_parity(const char* tag, double full_cost, double delta_cost,
                  const std::vector<geom::Rect>& full_rects,
                  const std::vector<geom::Rect>& delta_rects) {
  if (!same_bits(full_cost, delta_cost)) {
    parity_failure(tag, full_cost, delta_cost);
  }
  if (full_rects.size() != delta_rects.size()) {
    throw std::logic_error(std::string("eval_cache parity violation (") + tag +
                           "): rect count mismatch");
  }
  for (std::size_t b = 0; b < full_rects.size(); ++b) {
    if (!same_rect(full_rects[b], delta_rects[b])) {
      throw std::logic_error(std::string("eval_cache parity violation (") +
                             tag + "): rect mismatch at block " +
                             std::to_string(b));
    }
  }
}

/// The mode dispatch both evaluators share.  `full()` is the reference
/// pack (returns the rects), `delta()` the fast path (returns the cost and
/// leaves its packing in `delta_rects`).  Full mode bypasses memoization —
/// the honest baseline the bench compares against; delta mode memoizes through `tt` when one is given; check mode
/// runs both paths on every evaluation and requires bitwise agreement, and
/// a TT hit must equal the recompute.
template <class State, class Full, class Delta>
double dispatch_cost(const char* tag, const floorplan::Instance& inst,
                     TranspositionCache* tt, const State& state, Full full,
                     Delta delta, const std::vector<geom::Rect>& delta_rects) {
  const EvalMode mode = eval_mode();
  if (mode == EvalMode::kFull) return sp_cost(inst, full());
  if (mode == EvalMode::kDelta) {
    if (tt == nullptr) return delta();
    const TranspositionCache::Key key = TranspositionCache::hash(state);
    double c = 0.0;
    if (tt->lookup(key, &c)) return c;
    c = delta();
    tt->insert(key, c);
    return c;
  }
  const auto full_rects = full();
  const double full_cost = sp_cost(inst, full_rects);
  double tt_cost = 0.0;
  bool tt_hit = false;
  TranspositionCache::Key key{};
  if (tt != nullptr) {
    key = TranspositionCache::hash(state);
    tt_hit = tt->lookup(key, &tt_cost);
  }
  const double delta_cost = delta();
  check_parity(tag, full_cost, delta_cost, full_rects, delta_rects);
  if (tt_hit) {
    if (!same_bits(tt_cost, full_cost)) {
      parity_failure((std::string(tag) + " tt").c_str(), full_cost, tt_cost);
    }
  } else if (tt != nullptr) {
    tt->insert(key, full_cost);
  }
  return full_cost;
}

}  // namespace

EvalMode eval_mode() {
  int m = g_eval_mode.load(std::memory_order_acquire);
  if (m < 0) {
    m = static_cast<int>(parse_eval_mode(std::getenv("AFP_EVAL")));
    int expected = -1;
    if (!g_eval_mode.compare_exchange_strong(expected, m,
                                             std::memory_order_acq_rel)) {
      m = expected;  // another thread initialized first; use its value
    }
  }
  return static_cast<EvalMode>(m);
}

void set_eval_mode(EvalMode mode) {
  g_eval_mode.store(static_cast<int>(mode), std::memory_order_release);
}

const char* to_string(EvalMode mode) {
  switch (mode) {
    case EvalMode::kFull:
      return "full";
    case EvalMode::kDelta:
      return "delta";
    case EvalMode::kCheck:
      return "check";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// TranspositionCache

bool TranspositionCache::lookup(const Key& k, double* cost) const {
  const Stripe& s = stripes_[k.h1 % static_cast<std::uint64_t>(kStripes)];
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.map.find(k.h1);
  if (it != s.map.end() && it->second.first == k.h2) {
    *cost = it->second.second;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void TranspositionCache::insert(const Key& k, double cost) {
  Stripe& s = stripes_[k.h1 % static_cast<std::uint64_t>(kStripes)];
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.map.find(k.h1);
  if (it != s.map.end()) {
    it->second = {k.h2, cost};  // refresh (h1 collision overwrite is a wash)
    return;
  }
  if (s.map.size() >= kPerStripeCap) {  // full stripe: drop, no evict
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  s.map.emplace(k.h1, std::make_pair(k.h2, cost));
}

long TranspositionCache::size() const {
  long total = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    total += static_cast<long>(s.map.size());
  }
  return total;
}

namespace {

// Two independent SplitMix64 absorption chains; per-field salts separate the
// encoding arrays so e.g. swapping s1 and s2 cannot produce the same key.
struct DualHash {
  std::uint64_t h1, h2;
  explicit DualHash(std::uint64_t tag)
      : h1(splitmix64(0x9e3779b97f4a7c15ull ^ tag)),
        h2(splitmix64(0x94d049bb133111ebull ^ tag)) {}
  void absorb(std::uint64_t salt, const std::vector<int>& v) {
    h1 = splitmix64(h1 ^ salt);
    h2 = splitmix64(h2 ^ (salt * 0xbf58476d1ce4e5b9ull));
    for (int e : v) {
      const auto u = static_cast<std::uint64_t>(static_cast<std::int64_t>(e));
      h1 = splitmix64(h1 ^ u);
      h2 = splitmix64(h2 ^ (u + 0xd6e8feb86659fd93ull));
    }
  }
  void absorb_one(std::uint64_t v) {
    h1 = splitmix64(h1 ^ v);
    h2 = splitmix64(h2 ^ (v + 0xd6e8feb86659fd93ull));
  }
};

}  // namespace

TranspositionCache::Key TranspositionCache::hash(const SequencePair& sp) {
  DualHash d(1);
  d.absorb(2, sp.s1);
  d.absorb(3, sp.s2);
  d.absorb(4, sp.shapes);
  return {d.h1, d.h2};
}

TranspositionCache::Key TranspositionCache::hash(const BStarTree& tree) {
  DualHash d(5);
  d.absorb(6, tree.left);
  d.absorb(7, tree.right);
  d.absorb(8, tree.shapes);
  d.absorb_one(static_cast<std::uint64_t>(tree.root));
  return {d.h1, d.h2};
}

// ---------------------------------------------------------------------------
// Scoring

namespace detail {

double score_rects(const floorplan::Instance& inst, double total_area,
                   const std::vector<geom::Rect>& rects, double hpwl) {
  // Mirrors sp_cost(evaluate_floorplan(inst, rects)) term by term.  On the
  // satisfied branch sp_cost returns -(-r) == r bitwise (IEEE negation is a
  // sign-bit flip); on the violated branch it re-evaluates a copied instance
  // with constraints stripped, whose reward terms are identical to ours, and
  // adds the soft penalty.  The cached total area and an HPWL from
  // hpwl_of keep every contributing double bit-identical to sp_cost.
  const floorplan::RewardWeights w;
  const geom::Rect bb = geom::bounding_box(rects);
  const double area = bb.area();
  int total = 0;
  const int violated = floorplan::constraint_violations(inst, rects, 1e-6,
                                                        &total);
  double r = w.alpha * (area / std::max(1e-12, total_area) - 1.0) +
             w.beta * (hpwl / inst.hpwl_ref - 1.0);
  if (inst.target_aspect) {
    const double d = *inst.target_aspect - geom::aspect_ratio(bb);
    r += w.gamma * d * d;
  }
  return r + floorplan::constraint_penalty(violated, total);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// SpEvaluator

SpEvaluator::SpEvaluator(const floorplan::Instance& inst, double spacing,
                         TranspositionCache* tt)
    : inst_(inst),
      spacing_(spacing),
      tt_(tt),
      total_area_(inst.total_block_area()) {}

double SpEvaluator::cost(const SequencePair& sp) {
  return dispatch_cost(
      "sequence-pair", inst_, tt_, sp,
      [&] { return pack_reference(inst_, sp, spacing_); },
      [&] { return eval_delta(sp); }, rects_);
}

double SpEvaluator::eval_delta(const SequencePair& sp) {
  pack_into(inst_, sp, spacing_, scratch_, rects_);
  return detail::score_rects(inst_, total_area_, rects_,
                             floorplan::hpwl_of(inst_, rects_));
}

// ---------------------------------------------------------------------------
// BStarEvaluator

BStarEvaluator::BStarEvaluator(const floorplan::Instance& inst, double spacing,
                               TranspositionCache* tt)
    : inst_(inst),
      spacing_(spacing),
      tt_(tt),
      total_area_(inst.total_block_area()) {}

double BStarEvaluator::cost(const BStarTree& tree) {
  return dispatch_cost(
      "b*-tree", inst_, tt_, tree,
      [&] { return pack_bstar(inst_, tree, spacing_); },
      [&] { return eval_delta(tree); }, rects_);
}

double BStarEvaluator::eval_delta(const BStarTree& tree) {
  pack_bstar_into(inst_, tree, spacing_, scratch_, rects_);
  return detail::score_rects(inst_, total_area_, rects_,
                             floorplan::hpwl_of(inst_, rects_));
}

}  // namespace afp::metaheur
