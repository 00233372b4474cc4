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

constexpr std::size_t z(int v) { return static_cast<std::size_t>(v); }

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

/// The mode dispatch both evaluators share.  `full()` is the legacy repack
/// (returns the rects), `delta()` the incremental path (returns the cost and
/// leaves its packing in `delta_rects`).  Full mode bypasses memoization and
/// incremental state alike — the honest baseline the bench compares
/// against; delta mode memoizes through `tt` when one is given; check mode
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
// RectScorer

namespace detail {

void RectScorer::bind(const floorplan::Instance& inst) {
  inst_ = &inst;
  total_area_ = inst.total_block_area();
  hpwl_.reset(inst);
}

double RectScorer::cost(const std::vector<geom::Rect>& rects,
                        const std::vector<int>& moved, bool full) {
  // When most blocks moved, nearly every net is dirty and the per-net flag
  // bookkeeping of update() costs more than rescanning everything; both
  // paths run the same per-net min/max chain, so the sum is bit-identical.
  const bool rescan_all = full || 2 * moved.size() >= rects.size();
  return score_rects(*inst_, total_area_, rects,
                     rescan_all ? hpwl_.recompute(rects)
                                : hpwl_.update(rects, moved));
}

double score_rects(const floorplan::Instance& inst, double total_area,
                   const std::vector<geom::Rect>& rects, double hpwl) {
  // Mirrors sp_cost(evaluate_floorplan(inst, rects)) term by term.  On the
  // satisfied branch sp_cost returns -(-r) == r bitwise (IEEE negation is a
  // sign-bit flip); on the violated branch it re-evaluates a copied instance
  // with constraints stripped, whose reward terms are identical to ours, and
  // adds the soft penalty.  Using the cached total area and the HPWL sum of
  // the same per-net chain keeps every contributing double bit-identical to
  // the legacy path.
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
    : inst_(inst), spacing_(spacing), tt_(tt) {
  scorer_.bind(inst);
}

double SpEvaluator::cost(const SequencePair& sp) {
  return dispatch_cost(
      "sequence-pair", inst_, tt_, sp,
      [&] { return pack(inst_, sp, spacing_); },
      [&] { return eval_delta(sp); }, rects_);
}

double SpEvaluator::eval_delta(const SequencePair& sp) {
  repack(sp);
  return scorer_.cost(rects_, moved_, full_rescan_);
}

void SpEvaluator::pack_full(const SequencePair& sp) {
  const int n = sp.size();
  const bool first = !has_state_ || static_cast<int>(rects_.size()) != n;
  pos1_.resize(z(n));
  pos2_.resize(z(n));
  npos1_.resize(z(n));
  npos2_.resize(z(n));
  changed_.assign(z(n), 0);
  w_.resize(z(n));
  h_.resize(z(n));
  x_.assign(z(n), 0.0);
  y_.assign(z(n), 0.0);
  if (first) rects_.assign(z(n), {});
  for (int i = 0; i < n; ++i) {
    pos1_[z(sp.s1[z(i)])] = i;
    pos2_[z(sp.s2[z(i)])] = i;
  }
  for (int b = 0; b < n; ++b) {
    const auto& sh = inst_.blocks[z(b)].shapes[z(sp.shapes[z(b)])];
    w_[z(b)] = sh.w + 2.0 * spacing_;
    h_[z(b)] = sh.h + 2.0 * spacing_;
  }
  // Exact loops of pack(): x in s1 order, y in s2 order.
  for (int i = 0; i < n; ++i) {
    const int b = sp.s1[z(i)];
    double xb = 0.0;
    for (int j = 0; j < i; ++j) {
      const int a = sp.s1[z(j)];
      if (pos2_[z(a)] < pos2_[z(b)]) xb = std::max(xb, x_[z(a)] + w_[z(a)]);
    }
    x_[z(b)] = xb;
  }
  for (int i = 0; i < n; ++i) {
    const int a = sp.s2[z(i)];
    double ya = 0.0;
    for (int j = 0; j < i; ++j) {
      const int b = sp.s2[z(j)];
      if (pos1_[z(a)] < pos1_[z(b)]) ya = std::max(ya, y_[z(b)] + h_[z(b)]);
    }
    y_[z(a)] = ya;
  }
  moved_.clear();
  for (int b = 0; b < n; ++b) {
    const auto& sh = inst_.blocks[z(b)].shapes[z(sp.shapes[z(b)])];
    const geom::Rect r{x_[z(b)] + spacing_, y_[z(b)] + spacing_, sh.w, sh.h};
    if (first || !same_rect(r, rects_[z(b)])) {
      rects_[z(b)] = r;
      moved_.push_back(b);
    }
  }
  full_rescan_ = first;  // with prior state, moved_ is a valid HPWL delta
  cached_ = sp;
  has_state_ = true;
}

void SpEvaluator::repack(const SequencePair& sp) {
  const int n = sp.size();
  if (!has_state_ || cached_.size() != n) {
    pack_full(sp);
    return;
  }
  for (int i = 0; i < n; ++i) {
    npos1_[z(sp.s1[z(i)])] = i;
    npos2_[z(sp.s2[z(i)])] = i;
  }
  // Diff against the cached state to find where the packing can first
  // diverge.  A block whose match positions moved disturbs both axes from
  // the earlier of its old and new positions; a shape change disturbs an
  // axis from just after the block's position (its own coordinate cannot
  // change, only its successors').  Everything left of the first
  // disturbance is frozen: no predecessor set or contribution there can
  // have changed, so those coordinates are provably identical.
  touched_.clear();
  int startx = n;
  int starty = n;
  for (int b = 0; b < n; ++b) {
    if (npos1_[z(b)] != pos1_[z(b)] || npos2_[z(b)] != pos2_[z(b)]) {
      startx = std::min(startx, std::min(pos1_[z(b)], npos1_[z(b)]));
      starty = std::min(starty, std::min(pos2_[z(b)], npos2_[z(b)]));
    }
    if (sp.shapes[z(b)] != cached_.shapes[z(b)]) {
      const auto& sh = inst_.blocks[z(b)].shapes[z(sp.shapes[z(b)])];
      const double nw = sh.w + 2.0 * spacing_;
      const double nh = sh.h + 2.0 * spacing_;
      if (!same_bits(nw, w_[z(b)])) {
        w_[z(b)] = nw;
        startx = std::min(startx, npos1_[z(b)] + 1);
      }
      if (!same_bits(nh, h_[z(b)])) {
        h_[z(b)] = nh;
        starty = std::min(starty, npos2_[z(b)] + 1);
      }
      changed_[z(b)] = 1;
      touched_.push_back(b);
    }
  }

  // Suffix re-relaxation, one Fenwick prefix-max tree per axis.  pack()
  // computes x[b] = max over predecessors a (earlier in both s1 and s2) of
  // x[a] + w[a]; walking s1 in order and inserting each block's
  // contribution keyed by its s2 position makes that exactly a prefix-max
  // query.  std::max over the same set of doubles is bit-exact however it
  // is associated, so every coordinate matches a from-scratch pack bit for
  // bit.  Positions left of the first disturbance skip the query (their
  // coordinates are frozen) but still insert, seeding the tree for the
  // suffix.  No diff-size fallback is needed: a restart-sized diff simply
  // degenerates to the full O(n log n) re-relaxation.
  if (startx < n) {
    fenx_.assign(z(n + 1), 0.0);
    for (int i = 0; i < n; ++i) {
      const int b = sp.s1[z(i)];
      if (i >= startx) {
        double xb = 0.0;
        for (int k = npos2_[z(b)]; k > 0; k -= k & -k) {
          xb = std::max(xb, fenx_[z(k)]);
        }
        if (!same_bits(xb, x_[z(b)])) {
          x_[z(b)] = xb;
          if (changed_[z(b)] == 0) {
            changed_[z(b)] = 1;
            touched_.push_back(b);
          }
        }
      }
      const double contrib = x_[z(b)] + w_[z(b)];
      for (int k = npos2_[z(b)] + 1; k <= n; k += k & -k) {
        fenx_[z(k)] = std::max(fenx_[z(k)], contrib);
      }
    }
  }

  // Symmetric y pass over s2: "b below a" means earlier in s2 and later in
  // s1, so the key order is reversed (n - npos1) to turn the successor
  // test into a prefix-max query.
  if (starty < n) {
    feny_.assign(z(n + 1), 0.0);
    for (int i = 0; i < n; ++i) {
      const int a = sp.s2[z(i)];
      if (i >= starty) {
        double ya = 0.0;
        for (int k = n - npos1_[z(a)] - 1; k > 0; k -= k & -k) {
          ya = std::max(ya, feny_[z(k)]);
        }
        if (!same_bits(ya, y_[z(a)])) {
          y_[z(a)] = ya;
          if (changed_[z(a)] == 0) {
            changed_[z(a)] = 1;
            touched_.push_back(a);
          }
        }
      }
      const double contrib = y_[z(a)] + h_[z(a)];
      for (int k = n - npos1_[z(a)]; k <= n; k += k & -k) {
        feny_[z(k)] = std::max(feny_[z(k)], contrib);
      }
    }
  }

  moved_.clear();
  for (int b : touched_) {
    changed_[z(b)] = 0;
    const auto& sh = inst_.blocks[z(b)].shapes[z(sp.shapes[z(b)])];
    const geom::Rect r{x_[z(b)] + spacing_, y_[z(b)] + spacing_, sh.w, sh.h};
    if (!same_rect(r, rects_[z(b)])) {
      rects_[z(b)] = r;
      moved_.push_back(b);
    }
  }
  std::swap(pos1_, npos1_);
  std::swap(pos2_, npos2_);
  cached_ = sp;
  full_rescan_ = false;
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
  // A B* move shifts every block after it in preorder, so most nets are
  // dirty anyway: a plain HPWL scan measured faster than diffing the rects
  // to feed the HPWL cache's incremental update.
  return detail::score_rects(inst_, total_area_, rects_,
                             floorplan::hpwl_of(inst_, rects_));
}

}  // namespace afp::metaheur
