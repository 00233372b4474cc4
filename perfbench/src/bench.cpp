#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "core/job_service.hpp"
#include "core/report.hpp"
#include "metaheur/eval_cache.hpp"

namespace perfbench {

namespace core = afp::core;

Quality quality_of(const core::PipelineResult& res) {
  Quality q;
  q.dead_space = res.eval.dead_space;
  q.hpwl = res.eval.hpwl;
  q.drc_violations = static_cast<long>(res.drc.violations.size());
  q.lvs_shorts = static_cast<long>(res.lvs.shorted.size());
  q.lvs_opens = static_cast<long>(res.lvs.open_nets.size());
  q.constraint_violations = res.eval.constraint_violations;
  q.constraint_items = res.eval.constraint_items;
  return q;
}

void add_counts(Quality& into, const Quality& q) {
  into.drc_violations += q.drc_violations;
  into.lvs_shorts += q.lvs_shorts;
  into.lvs_opens += q.lvs_opens;
  into.constraint_violations += q.constraint_violations;
  into.constraint_items += q.constraint_items;
}

std::string check_result(const core::PipelineResult& res) {
  const core::JobError verr = core::JobService::validate_result(res);
  if (!verr.ok()) return "invalid result: " + verr.message;
  if (static_cast<int>(res.rects.size()) != res.instance.num_blocks()) {
    return "placed " + std::to_string(res.rects.size()) + " of " +
           std::to_string(res.instance.num_blocks()) + " blocks";
  }
  for (const auto& r : res.rects) {
    if (!std::isfinite(r.x) || !std::isfinite(r.y) || !(r.w > 0.0) ||
        !(r.h > 0.0)) {
      return "degenerate block rectangle";
    }
  }
  // Blocks may touch but never overlap (1e-6 um slack for rounding).
  constexpr double kEps = 1e-6;
  for (std::size_t i = 0; i < res.rects.size(); ++i) {
    const auto& a = res.rects[i];
    for (std::size_t j = i + 1; j < res.rects.size(); ++j) {
      const auto& b = res.rects[j];
      const double ox = std::min(a.x + a.w, b.x + b.w) - std::max(a.x, b.x);
      const double oy = std::min(a.y + a.h, b.y + b.h) - std::max(a.y, b.y);
      if (ox > kEps && oy > kEps) {
        return "blocks " + std::to_string(i) + " and " + std::to_string(j) +
               " overlap";
      }
    }
  }
  if (!std::isfinite(res.route.total_wirelength)) return "non-finite route";
  return "";
}

std::string normalize_report(std::string report) {
  for (const char* member : {"\"timings\": {", "\"tt_cache\": {"}) {
    const std::size_t at = report.find(member);
    if (at == std::string::npos) continue;
    const std::size_t open = report.find('{', at);
    const std::size_t close = report.find('}', open);
    if (close == std::string::npos) continue;
    report.replace(open, close - open + 1, "{}");
  }
  return report;
}

std::uint64_t report_hash(const std::string& report) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : normalize_report(report)) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string fingerprint(const core::PipelineResult& res,
                        const std::string& circuit,
                        const core::PipelineConfig& cfg, std::uint64_t seed) {
  const Quality q = quality_of(res);
  return normalize_report(core::report_json(res, circuit, res.optimizer,
                                            cfg.options, cfg.search, seed)) +
         "|drc " + std::to_string(q.drc_violations) + "|shorts " +
         std::to_string(q.lvs_shorts) + "|opens " +
         std::to_string(q.lvs_opens);
}

// ------------------------------------------------------------------ tracer

std::uint64_t Tracer::begin(const char* name, std::uint64_t job,
                            std::uint64_t parent) {
  const double t = seconds_since(epoch_);
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.job = job;
  s.name = name;
  s.t0 = t;
  s.t1 = t;
  spans_.push_back(s);
  return s.id;
}

void Tracer::end(std::uint64_t id) {
  const double t = seconds_since(epoch_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].t1 = t;
}

std::map<std::string, double> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += s.t1 - s.t0;
  return out;
}

double Tracer::self_seconds_of_roots() const {
  std::lock_guard<std::mutex> lock(mu_);
  double self = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == 0) {
      self += s.t1 - s.t0;
    } else if (spans_[s.parent - 1].parent == 0) {
      self -= s.t1 - s.t0;  // direct children of a job do not overlap
    }
  }
  return self;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path);
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  "{\"id\": %llu, \"parent\": %llu, \"job\": %llu, "
                  "\"name\": \"%s\", \"t0\": %.9f, \"t1\": %.9f}\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.job), s.name, s.t0, s.t1);
    os << buf;
  }
}

// ---------------------------------------------------------- staged pipeline

core::PipelineResult run_staged(const core::PipelineConfig& cfg,
                                const afp::netlist::Netlist& nl,
                                const Agent& agent, std::mt19937_64& rng,
                                Tracer& tracer, std::uint64_t job,
                                StagedCounters* counters) {
  namespace graphir = afp::graphir;
  namespace metaheur = afp::metaheur;
  const Scoped job_span(tracer, "job", job, 0);
  const std::uint64_t parent = job_span.id();
  // emplace() ends the previous span before the next one begins.
  std::optional<Scoped> s;
  auto span = [&](const char* name) { s.emplace(tracer, name, job, parent); };

  core::PipelineResult res;
  span("structrec.recognize");
  res.recognition = afp::structrec::recognize(nl);
  span("graphir.build_graph");
  graphir::CircuitGraph graph = graphir::build_graph(nl, res.recognition);
  s.reset();
  if (cfg.constrained || !cfg.scenario_constraints.empty()) {
    span("graphir.constraints");
    if (cfg.constrained) {
      graphir::apply_constraints(graph, graphir::default_constraints(graph));
    }
    if (!cfg.scenario_constraints.empty()) {
      graphir::ConstraintSpec merged = graph.constraints;
      graphir::ConstraintSpec overlay =
          graphir::resolve(cfg.scenario_constraints, graph);
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
      graphir::apply_constraints(graph, std::move(merged));
    }
  }
  span("floorplan.make_instance");
  afp::floorplan::Instance inst = afp::floorplan::make_instance(graph);
  if (cfg.scenario_constraints.extra_whitespace > 0.0) {
    const double k = std::sqrt(1.0 + cfg.scenario_constraints.extra_whitespace);
    inst.canvas_w *= k;
    inst.canvas_h *= k;
  }
  if (cfg.scenario_constraints.target_aspect) {
    inst.target_aspect = cfg.scenario_constraints.target_aspect;
  }
  span("metaheur.hpwl_ref");
  inst.hpwl_ref = cfg.hpwl_ref > 0.0 ? cfg.hpwl_ref
                                     : metaheur::estimate_hpwl_min(inst, rng);
  s.reset();

  std::vector<afp::geom::Rect> rects;
  double tol = 1e-6;
  if (agent.policy != nullptr) {
    span("rl.encode");
    const afp::rl::TaskContext task = afp::rl::make_task(
        *agent.encoder, graph, inst.hpwl_ref, inst.target_aspect);
    span("rl.episodes");
    afp::rl::EpisodeResult ep = afp::rl::best_of_episodes(
        *agent.policy, task, cfg.rl_attempts, rng, cfg.env);
    s.reset();
    if (ep.rects.empty()) {
      throw std::runtime_error("agent produced no floorplan for " + nl.name());
    }
    rects = std::move(ep.rects);
    tol = inst.canvas_w / cfg.env.grid / 2.0 + 1e-9;
    res.optimizer = "rgcn-rl";
    res.evaluations = cfg.rl_attempts;
  } else {
    const auto opt = metaheur::make_optimizer(cfg.optimizer, cfg.options);
    metaheur::TranspositionCache tt;
    metaheur::SearchBudget budget = cfg.search.budget;
    budget.tt = &tt;
    span("metaheur.search");
    metaheur::BaselineResult base = opt->run(inst, budget, rng);
    s.reset();
    rects = std::move(base.rects);
    res.optimizer = opt->name();
    res.evaluations = base.evaluations;
    res.tt.hits = tt.hits();
    res.tt.misses = tt.misses();
    res.tt.dropped = tt.dropped();
    res.tt.entries = tt.size();
    if (counters != nullptr) {
      counters->tt_hits += tt.hits();
      counters->tt_lookups += tt.hits() + tt.misses();
    }
  }

  span("floorplan.evaluate");
  res.eval = afp::floorplan::evaluate_floorplan(inst, rects, {}, tol);
  s.reset();
  res.rects = std::move(rects);
  res.instance = std::move(inst);
  std::vector<int> dirs;
  dirs.reserve(graph.nodes.size());
  for (const auto& node : graph.nodes) dirs.push_back(node.routing_direction);
  res.graph = std::move(graph);

  span("route.global_route");
  res.route = afp::route::global_route(res.instance, res.rects, dirs);
  span("layoutgen.generate");
  res.layout = afp::layoutgen::generate_layout(res.instance, res.rects,
                                               res.route, cfg.layout, dirs);
  span("layoutgen.drc");
  res.drc = afp::layoutgen::run_drc(res.layout, cfg.layout);
  span("layoutgen.lvs");
  res.lvs = afp::layoutgen::run_lvs(res.layout);
  return res;
}

// ----------------------------------------------------------------- metrics

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double at = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(at));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (!std::isfinite(v[hi])) return v[hi];
  return v[lo] + (at - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

CpuSample cpu_sample() {
  std::ifstream is("/proc/stat");
  std::string cpu;
  is >> cpu;
  CpuSample s;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(is >> v)) break;
    if (field == 3 || field == 4) continue;  // idle time wants no CPU
    s.wanted += v;
    if (field == 7) s.steal = v;
  }
  return s;
}

double steal_share(const CpuSample& a, const CpuSample& b) {
  const double wanted = b.wanted - a.wanted;
  return wanted > 0.0 ? (b.steal - a.steal) / wanted : 0.0;
}

void add_end_to_end(WorkloadResult& out, double setup_s, double wall_s,
                    double peak_rss_mb, const std::vector<JobSample>& jobs,
                    const std::vector<Quality>& exact) {
  std::vector<double> lat_ms;
  long failed = 0;
  for (const JobSample& j : jobs) {
    lat_ms.push_back(j.failed ? std::numeric_limits<double>::infinity()
                              : j.latency_s * 1e3);
    failed += j.failed ? 1 : 0;
  }
  const long attempted = static_cast<long>(jobs.size());
  out.attempted += attempted;
  out.failed += failed;
  double ds = 0.0, log_hpwl = 0.0;
  for (const Quality& q : exact) {
    ds += q.dead_space;
    log_hpwl += std::log(q.hpwl);
  }
  const double n_exact = static_cast<double>(std::max<std::size_t>(exact.size(), 1));
  out.metrics.push_back({"setup_s", setup_s, "s"});
  out.metrics.push_back(
      {"jobs_per_s", static_cast<double>(attempted - failed) / wall_s, "jobs/s"});
  out.metrics.push_back({"latency_p50_ms", percentile(lat_ms, 0.5), "ms"});
  out.metrics.push_back({"latency_p90_ms", percentile(lat_ms, 0.9), "ms"});
  out.metrics.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});
  out.metrics.push_back(
      {"completed_ratio",
       attempted > 0 ? static_cast<double>(attempted - failed) / attempted : 0.0,
       "ratio"});
  out.metrics.push_back({"dead_space_mean", ds / n_exact, "ratio"});
  out.metrics.push_back({"hpwl_geomean_um", std::exp(log_hpwl / n_exact), "um"});
  Quality sum;
  for (const Quality& q : exact) add_counts(sum, q);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "exact: {\"jobs\": %zu, \"dead_space_mean\": %.17g, "
                "\"hpwl_geomean_um\": %.17g, \"drc_violations\": %ld, "
                "\"lvs_shorts\": %ld, \"lvs_opens\": %ld, "
                "\"constraint_violations\": %ld, \"constraint_items\": %ld}",
                exact.size(), ds / n_exact, std::exp(log_hpwl / n_exact),
                sum.drc_violations, sum.lvs_shorts, sum.lvs_opens,
                sum.constraint_violations, sum.constraint_items);
  out.notes.push_back(buf);
  out.notes.push_back("latency samples: " + std::to_string(attempted) +
                      " jobs (" + std::to_string(failed) +
                      " failed) over " + std::to_string(wall_s) + " s");
}

LayerCounts& LayerCounts::operator+=(const LayerCounts& o) {
  blocks += o.blocks;
  evaluations += o.evaluations;
  tt_hits += o.tt_hits;
  tt_lookups += o.tt_lookups;
  nets += o.nets;
  failed_nets += o.failed_nets;
  wirelength += o.wirelength;
  wires += o.wires;
  vias += o.vias;
  add_counts(q, o.q);
  jobs += o.jobs;
  return *this;
}

void add_layer_counts(LayerCounts& c, const core::PipelineResult& res,
                      const StagedCounters& sc) {
  c.blocks += static_cast<long>(res.recognition.structures.size());
  c.evaluations += res.evaluations;
  c.tt_hits += sc.tt_hits;
  c.tt_lookups += sc.tt_lookups;
  c.nets += static_cast<long>(res.route.trees.size());
  c.failed_nets += res.route.failed_nets;
  c.wirelength += res.route.total_wirelength;
  c.wires += static_cast<long>(res.layout.wires.size());
  c.vias += static_cast<long>(res.layout.vias.size());
  add_counts(c.q, quality_of(res));
  ++c.jobs;
}

void add_per_layer(WorkloadResult& out, const Tracer& tracer, long traced_jobs,
                   const LayerCounts& c, double make_scenario_s,
                   double traced_wall_s, double untraced_wall_s) {
  const std::map<std::string, double> tot = tracer.totals();
  const double n = static_cast<double>(std::max(traced_jobs, 1L));
  auto per_job = [&](const char* span) {
    const auto it = tot.find(span);
    return it == tot.end() ? 0.0 : it->second / n;
  };
  auto count = [&](const char* name, double v) {
    out.metrics.push_back({name, v, "count"});
  };
  auto secs = [&](const char* name, const char* span) {
    out.metrics.push_back({name, per_job(span), "s"});
  };
  out.metrics.push_back({"ingest.make_scenario_s", make_scenario_s, "s"});
  secs("structrec.recognize_s", "structrec.recognize");
  count("structrec.blocks", static_cast<double>(c.blocks));
  secs("graphir.build_graph_s", "graphir.build_graph");
  secs("graphir.constraints_s", "graphir.constraints");
  secs("floorplan.make_instance_s", "floorplan.make_instance");
  secs("floorplan.evaluate_s", "floorplan.evaluate");
  count("floorplan.constraint_violations",
        static_cast<double>(c.q.constraint_violations));
  count("floorplan.constraint_items", static_cast<double>(c.q.constraint_items));
  secs("metaheur.hpwl_ref_s", "metaheur.hpwl_ref");
  secs("metaheur.search_s", "metaheur.search");
  count("metaheur.evaluations", static_cast<double>(c.evaluations));
  // Evaluations are counted over the exact job set and search time over
  // every traced job, so the rate divides the two per-job means.
  const double evals_per_job =
      c.jobs > 0 ? static_cast<double>(c.evaluations) / c.jobs : 0.0;
  const double search_per_job = per_job("metaheur.search");
  out.metrics.push_back(
      {"metaheur.evals_per_s",
       search_per_job > 0.0 ? evals_per_job / search_per_job : 0.0, "1/s"});
  out.metrics.push_back(
      {"metaheur.tt_hit_ratio",
       c.tt_lookups > 0 ? static_cast<double>(c.tt_hits) / c.tt_lookups : 0.0,
       "ratio"});
  secs("rl.encode_s", "rl.encode");
  secs("rl.episodes_s", "rl.episodes");
  secs("route.global_route_s", "route.global_route");
  count("route.nets", static_cast<double>(c.nets));
  const double nets_per_job =
      c.jobs > 0 ? static_cast<double>(c.nets) / c.jobs : 0.0;
  out.metrics.push_back(
      {"route.ms_per_net",
       nets_per_job > 0.0 ? per_job("route.global_route") * 1e3 / nets_per_job
                          : 0.0,
       "ms"});
  count("route.failed_nets", static_cast<double>(c.failed_nets));
  out.metrics.push_back({"route.wirelength_um", c.wirelength, "um"});
  secs("layoutgen.generate_s", "layoutgen.generate");
  secs("layoutgen.drc_s", "layoutgen.drc");
  secs("layoutgen.lvs_s", "layoutgen.lvs");
  count("layoutgen.wires", static_cast<double>(c.wires));
  count("layoutgen.vias", static_cast<double>(c.vias));
  count("layoutgen.drc_violations", static_cast<double>(c.q.drc_violations));
  count("layoutgen.lvs_shorts", static_cast<double>(c.q.lvs_shorts));
  count("layoutgen.lvs_opens", static_cast<double>(c.q.lvs_opens));
  out.metrics.push_back(
      {"trace.job_self_s", tracer.self_seconds_of_roots() / n, "s"});
  out.metrics.push_back({"trace.traced_wall_s", traced_wall_s, "s"});
  out.metrics.push_back({"trace.untraced_wall_s", untraced_wall_s, "s"});
  out.metrics.push_back(
      {"trace.overhead_ratio",
       untraced_wall_s > 0.0 ? traced_wall_s / untraced_wall_s - 1.0 : 0.0,
       "ratio"});
  out.notes.push_back("traced jobs: " + std::to_string(traced_jobs) +
                      " | counts over the exact job set: " +
                      std::to_string(c.jobs) + " jobs");
}

void add_service_layer(WorkloadResult& out, const ServiceLayer& s) {
  out.metrics.push_back({"service.queue_wait_ms", s.queue_wait_ms, "ms"});
  out.metrics.push_back({"service.run_ms", s.run_ms, "ms"});
  out.metrics.push_back({"service.overhead_ms", s.overhead_ms, "ms"});
  out.metrics.push_back({"service.parked", static_cast<double>(s.parked), "count"});
  out.metrics.push_back(
      {"service.rejected", static_cast<double>(s.rejected), "count"});
  out.metrics.push_back({"service.dropped_progress",
                         static_cast<double>(s.dropped_progress), "count"});
}

}  // namespace perfbench
