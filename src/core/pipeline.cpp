#include "core/pipeline.hpp"

#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "core/fault.hpp"
#include "metaheur/eval_cache.hpp"
#include "metaheur/parallel_search.hpp"
#include "numeric/serialize.hpp"

namespace afp::core {

namespace {
using Clock = std::chrono::steady_clock;
double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t double_bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

double bits_double(std::uint64_t u) {
  double v;
  std::memcpy(&v, &u, sizeof v);
  return v;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Quantum-mode search state; exactly what checkpoint-resume round-trips.
struct QuantumState {
  std::uint64_t base_seed = 0;
  long quanta = 0;       ///< completed quanta
  long evaluations = 0;  ///< total packed-and-scored candidates so far
  bool has_best = false;
  double best_cost = 0.0;
  metaheur::BaselineResult best;
};

constexpr std::uint64_t kCheckpointVersion = 1;

void write_quantum_checkpoint(const std::string& path, std::uint64_t identity,
                              const QuantumState& st) {
  num::WordMap words;
  words["meta"] = {kCheckpointVersion,
                   identity,
                   st.base_seed,
                   static_cast<std::uint64_t>(st.quanta),
                   static_cast<std::uint64_t>(st.evaluations),
                   st.has_best ? 1ull : 0ull};
  std::vector<std::uint64_t> best;
  best.reserve(1 + 4 * st.best.rects.size());
  best.push_back(double_bits(st.best_cost));
  for (const auto& r : st.best.rects) {
    best.push_back(double_bits(r.x));
    best.push_back(double_bits(r.y));
    best.push_back(double_bits(r.w));
    best.push_back(double_bits(r.h));
  }
  words["best"] = std::move(best);
  num::save_words(path, words);
}

/// Returns false when no checkpoint exists (fresh run).  Throws
/// std::invalid_argument on an identity/version mismatch (resuming the
/// wrong search is a config error, not a reason to silently restart).
bool load_quantum_checkpoint(const std::string& path, std::uint64_t identity,
                             QuantumState* st) {
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe.good()) return false;
  }
  const num::WordMap words = num::load_words(path);
  const auto meta_it = words.find("meta");
  const auto best_it = words.find("best");
  if (meta_it == words.end() || best_it == words.end() ||
      meta_it->second.size() != 6 || best_it->second.empty() ||
      (best_it->second.size() - 1) % 4 != 0) {
    throw std::runtime_error("checkpoint: malformed quantum state in " + path);
  }
  const auto& meta = meta_it->second;
  if (meta[0] != kCheckpointVersion) {
    throw std::invalid_argument("checkpoint: unsupported version in " + path);
  }
  if (meta[1] != identity) {
    throw std::invalid_argument(
        "checkpoint: " + path +
        " was written by a different search configuration; refusing to "
        "resume");
  }
  st->base_seed = meta[2];
  st->quanta = static_cast<long>(meta[3]);
  st->evaluations = static_cast<long>(meta[4]);
  st->has_best = meta[5] != 0;
  const auto& best = best_it->second;
  st->best_cost = bits_double(best[0]);
  st->best.rects.clear();
  st->best.rects.reserve((best.size() - 1) / 4);
  for (std::size_t i = 1; i + 3 < best.size(); i += 4) {
    st->best.rects.push_back({bits_double(best[i]), bits_double(best[i + 1]),
                              bits_double(best[i + 2]),
                              bits_double(best[i + 3])});
  }
  st->best.evaluations = st->evaluations;
  return true;
}
}  // namespace

void validate_search(const SearchConfig& search) {
  auto range = [](const char* what, long long v, long long lo, long long hi) {
    if (v < lo || v > hi) {
      throw std::invalid_argument(
          std::string("search.") + what + " must be in [" +
          std::to_string(lo) + ", " + std::to_string(hi) + "], got " +
          std::to_string(v));
    }
  };
  auto seconds = [](const char* what, double v) {
    if (!(v >= 0.0 && v <= 1e9)) {
      throw std::invalid_argument(std::string("search.") + what +
                                  " must be in [0, 1e9] seconds");
    }
  };
  range("restarts", search.restarts, 1, 1 << 16);
  range("iterations", search.budget.iterations, 0, 1 << 30);
  range("quanta", search.budget.quanta, 0, 1 << 20);
  range("max_retries", search.retry.max_retries, 0, 100);
  seconds("wall_clock_s", search.budget.wall_clock_s);
  seconds("deadline_s", search.budget.deadline_s);
  const bool quantum_mode =
      search.budget.wall_clock_s > 0.0 || search.budget.quanta > 0;
  if (search.restarts > 1 && quantum_mode) {
    throw std::invalid_argument(
        "search.restarts excludes search.wall_clock_s and search.quanta: "
        "the quantum mode runs sequential iteration quanta instead of a "
        "fan-out");
  }
  if (!search.checkpoint_path.empty() && !quantum_mode) {
    throw std::invalid_argument(
        "a checkpoint requires the quantum mode (search.quanta or "
        "search.wall_clock_s)");
  }
  if (search.resume && search.checkpoint_path.empty()) {
    throw std::invalid_argument("resume requires a checkpoint path");
  }
}

std::uint64_t checkpoint_identity(const std::string& optimizer,
                                  const metaheur::Options& options,
                                  int num_blocks, int iterations) {
  std::string key = optimizer;
  for (const auto& [k, v] : options) key += ";" + k + "=" + v;
  key += "#" + std::to_string(num_blocks) + "#" + std::to_string(iterations);
  return fnv1a(key);
}

FloorplanPipeline::Prepared FloorplanPipeline::prepare(
    const netlist::Netlist& nl, std::mt19937_64& rng) const {
  Prepared prep;
  const auto t0 = Clock::now();
  prep.recognition = structrec::recognize(nl);
  prep.graph = graphir::build_graph(nl, prep.recognition);
  if (cfg_.constrained) {
    graphir::apply_constraints(prep.graph,
                               graphir::default_constraints(prep.graph));
  }
  if (!cfg_.scenario_constraints.empty()) {
    // Scenario overlay: resolve the name-keyed constraints against the
    // recognized blocks and merge them into whatever the default derivation
    // installed (apply_constraints re-materializes the relation edges).
    graphir::ConstraintSpec merged = prep.graph.constraints;
    graphir::ConstraintSpec overlay =
        graphir::resolve(cfg_.scenario_constraints, prep.graph);
    auto append = [](auto& dst, auto& src) {
      dst.insert(dst.end(), std::make_move_iterator(src.begin()),
                 std::make_move_iterator(src.end()));
    };
    append(merged.sym_pairs, overlay.sym_pairs);
    append(merged.self_syms, overlay.self_syms);
    append(merged.align_groups, overlay.align_groups);
    append(merged.match_groups, overlay.match_groups);
    append(merged.keep_outs, overlay.keep_outs);
    append(merged.preplaced, overlay.preplaced);
    graphir::apply_constraints(prep.graph, std::move(merged));
  }
  prep.instance = floorplan::make_instance(prep.graph);
  if (cfg_.scenario_constraints.extra_whitespace > 0.0) {
    const double s =
        std::sqrt(1.0 + cfg_.scenario_constraints.extra_whitespace);
    prep.instance.canvas_w *= s;
    prep.instance.canvas_h *= s;
  }
  if (cfg_.scenario_constraints.target_aspect) {
    prep.instance.target_aspect = cfg_.scenario_constraints.target_aspect;
  }
  if (cfg_.hpwl_ref > 0.0) {
    prep.instance.hpwl_ref = cfg_.hpwl_ref;
  } else {
    prep.instance.hpwl_ref = metaheur::estimate_hpwl_min(prep.instance, rng);
  }
  prep.recognition_s = since(t0);
  return prep;
}

PipelineResult FloorplanPipeline::back_half(Prepared prep,
                                            std::vector<geom::Rect> rects,
                                            double floorplan_s,
                                            double constraint_tol) const {
  PipelineResult res;
  res.recognition = std::move(prep.recognition);
  res.instance = std::move(prep.instance);
  res.eval = floorplan::evaluate_floorplan(res.instance, rects, {},
                                           constraint_tol);
  res.rects = std::move(rects);
  res.timings.recognition_s = prep.recognition_s;
  res.timings.floorplan_s = floorplan_s;

  std::vector<int> dirs;
  dirs.reserve(prep.graph.nodes.size());
  for (const auto& node : prep.graph.nodes) {
    dirs.push_back(node.routing_direction);
  }
  res.graph = std::move(prep.graph);

  auto t0 = Clock::now();
  res.route = route::global_route(res.instance, res.rects, dirs);
  res.timings.route_s = since(t0);

  t0 = Clock::now();
  res.layout = layoutgen::generate_layout(res.instance, res.rects, res.route,
                                          cfg_.layout, dirs);
  res.drc = layoutgen::run_drc(res.layout, cfg_.layout);
  res.lvs = layoutgen::run_lvs(res.layout);
  res.timings.layout_s = since(t0);
  return res;
}

PipelineResult FloorplanPipeline::run(const netlist::Netlist& nl,
                                      const rl::ActorCritic& policy,
                                      const rgcn::RewardModel& encoder,
                                      std::mt19937_64& rng) const {
  Prepared prep = prepare(nl, rng);
  const auto t0 = Clock::now();
  rl::TaskContext task =
      rl::make_task(encoder, prep.graph, prep.instance.hpwl_ref,
                    prep.instance.target_aspect);
  rl::EpisodeResult ep = rl::best_of_episodes(policy, task, cfg_.rl_attempts,
                                              rng, cfg_.env);
  if (ep.rects.empty()) {
    throw std::runtime_error(
        "FloorplanPipeline: agent failed to produce a complete floorplan for " +
        nl.name());
  }
  // Grid-produced rectangles: alignment is exact at grid granularity.
  const double tol = prep.instance.canvas_w / cfg_.env.grid / 2.0 + 1e-9;
  auto res = back_half(std::move(prep), std::move(ep.rects), since(t0), tol);
  res.optimizer = "rgcn-rl";
  res.evaluations = cfg_.rl_attempts;
  return res;
}

PipelineResult FloorplanPipeline::run(const netlist::Netlist& nl,
                                      std::mt19937_64& rng,
                                      const CancelToken* cancel) const {
  const auto opt = metaheur::make_optimizer(cfg_.optimizer, cfg_.options);
  return run(nl, *opt, rng, cancel);
}

PipelineResult FloorplanPipeline::run(const netlist::Netlist& nl,
                                      const metaheur::Optimizer& opt,
                                      std::mt19937_64& rng,
                                      const CancelToken* cancel) const {
  if (cancel && cancel->cancelled()) throw CancelledError();
  if (cancel && cancel->expired()) throw DeadlineExceededError(-1);
  Prepared prep = prepare(nl, rng);
  const auto t0 = Clock::now();
  const metaheur::SearchBudget& budget = cfg_.search.budget;
  metaheur::BaselineResult base;
  long quanta = 1;

  // Job-scoped transposition cache: every quantum, restart and PT replica
  // of this job shares one memo (metaheur/eval_cache), so a state revisited
  // by any of them skips its repack + rescore.  Memoized costs are pure
  // functions of the key, which keeps the quantum/multistart determinism
  // contracts intact; thread safety comes from the cache's striped locks.
  metaheur::TranspositionCache tt;

  // The one exception firewall around an optimizer invocation: the fault
  // injector fires at quantum `q`, then `body` runs.  The stop-signal
  // exceptions and bad_alloc keep their identity (they classify as
  // cancelled / deadline_exceeded / resource_exhausted), everything else
  // is wrapped so the failing quantum is attributed.  Injecting at the
  // same boundary makes an injected fault indistinguishable from a real
  // optimizer bug downstream.
  auto firewall = [&](long q, auto&& body) -> metaheur::BaselineResult {
    try {
      FaultInjector::global().maybe_inject(q, cancel);
      return body();
    } catch (const CancelledError&) {
      throw;
    } catch (const DeadlineExceededError&) {
      throw;
    } catch (const std::bad_alloc&) {
      throw;
    } catch (const std::exception& e) {
      throw OptimizerError(q, std::string(opt.name()) + ": " + e.what());
    }
  };

  const bool quantum_mode = budget.wall_clock_s > 0.0 || budget.quanta > 0;
  if (quantum_mode) {
    // Quantum mode: fixed-size iteration quanta race the wall clock and/or
    // count against budget.quanta.  Quantum q always draws from
    // restart_rng(base, q), so the outcome is a pure function of
    // (base_seed, #quanta completed) — reproducible for a fixed budget,
    // thread-count invariant, and resumable from a checkpoint.  At least
    // one quantum always completes (unless resumed past the cap).
    QuantumState st;
    st.base_seed = cfg_.search.base_seed ? cfg_.search.base_seed : rng();
    const std::string& ckpt = cfg_.search.checkpoint_path;
    std::uint64_t identity = 0;
    if (!ckpt.empty()) {
      identity = checkpoint_identity(opt.name(), cfg_.options,
                                     prep.instance.num_blocks(),
                                     budget.iterations);
      if (cfg_.search.resume) load_quantum_checkpoint(ckpt, identity, &st);
    }
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(budget.wall_clock_s));
    metaheur::SearchBudget quantum;
    quantum.iterations = budget.iterations;
    quantum.stop = cancel;
    quantum.tt = &tt;
    while (budget.quanta <= 0 || st.quanta < budget.quanta) {
      if (cancel && cancel->expired()) throw DeadlineExceededError(st.quanta);
      std::mt19937_64 qrng =
          metaheur::restart_rng(st.base_seed, static_cast<int>(st.quanta));
      metaheur::BaselineResult r = firewall(
          st.quanta, [&] { return opt.run(prep.instance, quantum, qrng); });
      st.evaluations += r.evaluations;
      const double cost = metaheur::sp_cost(prep.instance, r.rects);
      if (!st.has_best || cost < st.best_cost) {
        st.has_best = true;
        st.best_cost = cost;
        st.best = std::move(r);
      }
      ++st.quanta;
      if (!ckpt.empty()) write_quantum_checkpoint(ckpt, identity, st);
      if (budget.wall_clock_s > 0.0 && Clock::now() >= deadline) break;
      if (cancel && cancel->cancelled()) break;
    }
    base = std::move(st.best);
    base.evaluations = st.evaluations;
    quanta = st.quanta;
  } else if (cfg_.search.restarts > 1) {
    // Fan the whole search out on the pool; each restart gets its own
    // SplitMix64 stream, so the result is thread-count invariant and a pure
    // function of (base_seed, restarts).  The stop token rides inside the
    // budget: a cancelled/expired restart truncates after its next
    // iteration and returns its best-so-far, so the fan-out drains at
    // iteration latency while every slot still holds a valid result for
    // the deterministic selection.
    metaheur::MultiStartOptions mopt;
    mopt.restarts = cfg_.search.restarts;
    mopt.base_seed = cfg_.search.base_seed ? cfg_.search.base_seed : rng();
    metaheur::SearchBudget eff = budget;
    eff.stop = cancel;
    eff.tt = &tt;
    // The firewall sits around the whole fan-out: restarts run on pool
    // threads where the ambient FaultScope is not visible, and an exception
    // escaping any restart aborts the fan-out.
    base = firewall(0, [&] {
      return metaheur::run_multistart(
          prep.instance,
          [&](int, std::mt19937_64& r) {
            return opt.run(prep.instance, eff, r);
          },
          mopt);
    });
  } else {
    metaheur::SearchBudget eff = budget;
    eff.stop = cancel;
    eff.tt = &tt;
    base = firewall(0, [&] { return opt.run(prep.instance, eff, rng); });
  }
  // An expired watchdog is a hard failure in every mode: the truncated
  // search result is not the deterministic function of the seed the report
  // contract promises, so it is discarded rather than returned.
  if (cancel && cancel->expired()) throw DeadlineExceededError(quanta - 1);
  const long evaluations = base.evaluations;
  auto res =
      back_half(std::move(prep), std::move(base.rects), since(t0), 1e-6);
  res.optimizer = opt.name();
  res.evaluations = evaluations;
  res.quanta = quanta;
  res.tt.hits = tt.hits();
  res.tt.misses = tt.misses();
  res.tt.dropped = tt.dropped();
  res.tt.entries = tt.size();
  return res;
}

}  // namespace afp::core
