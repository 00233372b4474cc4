// afp — command-line front end for the analog floorplanning library.
//
//   afp list
//       List the built-in circuit registry.
//   afp list-baselines
//       List the registered optimizers: name, encoding, tunable options.
//   afp floorplan <circuit|deck.sp> | --batch <dir|manifest>
//       | --scenario SPEC | --scenario-matrix SPEC
//       [--baseline <name>] [--opt k=v[,k=v...]] [--restarts N] [--iters N]
//       [--time-budget S] [--constrained] [--seed N] [--svg out.svg]
//       [--report out.txt] [--report-json out.json]
//       Run the full pipeline with a registry optimizer — one circuit, or a
//       batch over a directory of .sp decks / a manifest file, or generated
//       scenarios.
//   afp ingest <deck.sp> [--top CELL] [--parse-only] [search options]
//       Parse and elaborate a SPICE deck, then run it like floorplan.
//   afp train [--episodes N] [--seed N] [--out prefix]
//       Pre-train the R-GCN and HCL-train the PPO agent; writes
//       <prefix>_policy.bin and <prefix>_encoder.bin.
//   afp eval <circuit|deck.sp> --agent prefix [--attempts K] [--seed N]
//       [--constrained] [--svg out.svg]
//       Floorplan with a trained agent checkpoint (zero-shot).
//   afp graph <circuit|deck.sp> [--dot out.dot]
//       Print the heterogeneous circuit graph.
//
// Global options: --threads N (numeric thread-pool size), --tier
// naive|scalar|avx2|auto (kernel tier), --help.  See kUsage below.
//
// Each command's flags are one table (kCommands) read by the shared parser
// in flags.hpp: an unknown flag, a missing value, an extra positional or a
// malformed number exits with code 2 and the usage text on stderr.  A
// <circuit> that is not in the registry is read as a SPICE deck by
// ingest::parse_file.
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <sstream>

#include "core/job_service.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/training.hpp"
#include "ingest/scenario.hpp"
#include "ingest/spice_parser.hpp"
#include "netlist/library.hpp"
#include "nn/checkpoint.hpp"
#include "numeric/parallel.hpp"
#include "numeric/simd.hpp"

#include "flags.hpp"

namespace {

using namespace afp;

const char kUsage[] = R"(afp — analog floorplanning pipeline (R-GCN + PPO + metaheuristics)

usage: afp <command> [args] [options]

commands:
  list                              List the built-in circuit registry.
  list-baselines                    List the registered optimizers: name,
                                    encoding and tunable options.
  floorplan <circuit|deck.sp>       Run the full pipeline with a registry
      [--baseline B] [--opt k=v]    optimizer.  --batch runs an async job
      [--batch dir|manifest]        batch instead of one circuit;
      [--scenario F:S:SEED]         --scenario runs one generated workload
      [--scenario-matrix SPEC]      and --scenario-matrix a whole sweep.
      [--time-budget S]
      [--constrained] [--seed N]
      [--svg out.svg]
      [--report out.txt]
      [--report-json out.json]
  ingest <deck.sp> [--top CELL]     Parse a SPICE deck (.subckt hierarchy,
      [--parse-only]                .param expressions, M/R/C/Q/D/X cards),
      [search options]              elaborate it flat and run the pipeline.
                                    --parse-only stops after elaboration.
                                    Malformed decks exit 2 with file:line.
  train [--episodes N] [--seed N]   Pre-train the R-GCN and HCL-train the
      [--out prefix]                PPO agent; writes <prefix>_policy.bin
                                    and <prefix>_encoder.bin.
  eval <circuit|deck.sp>            Floorplan with a trained agent
      --agent prefix [--attempts K] checkpoint (zero-shot).
      [--seed N] [--constrained]
      [--svg out.svg]
  graph <circuit|deck.sp>           Print the heterogeneous circuit graph.
      [--dot out.dot]

search options (floorplan, ingest):
  --baseline B  Registry optimizer name (see `afp list-baselines`):
                sa | ga | pso | rlsa | rlsp | sab | pt | pt-bstar
                (default sa).
  --opt k=v     Set an optimizer option (repeatable; commas separate
                several pairs), e.g. --opt replicas=4,swap_interval=16
                for pt.  `afp list-baselines` shows each optimizer's keys
                and defaults.
  --restarts N  Best-of-N independent searches on the thread pool
                (default 1).  Deterministic for any thread count.
  --iters N     Override the optimizer's primary budget knob (moves,
                generations, sweeps, episodes or per-replica moves).
  --time-budget S  Wall-clock budget in seconds: iteration quanta race the
                deadline (deterministic per completed quantum count).
                Excludes --restarts > 1.
  --quanta N    Run exactly N iteration quanta (deterministic fixed-quanta
                mode; no wall clock involved).  Excludes --restarts > 1.
  --job-timeout S  Hard per-job watchdog deadline in seconds.  A job that
                overruns is terminated at the next quantum/iteration
                boundary with status deadline_exceeded; partial results
                are discarded.
  --max-retries N  Retry a failed job up to N (<= 100) times (retryable
                error kinds only: optimizer_failure, resource_exhausted)
                with capped exponential backoff.  Each attempt draws a
                fresh deterministic seed; default 0.
  --checkpoint F  Persist per-quantum search state to file F (atomic
                write).  Requires --quanta or --time-budget.
  --resume      Resume from --checkpoint F when it exists; the resumed
                run is bitwise identical to an uninterrupted one.
  --batch P     Batch mode: P is a directory (every *.sp file, sorted) or
                a manifest file (one circuit name or deck path per line, #
                comments).  Jobs run concurrently on the thread pool with
                per-job SplitMix64 seeds derived from --seed.  Entries
                that fail to load are skipped (reported as failed with
                kind invalid_config); exit code 3 flags such a partially
                failed batch.
  --report F    Write a machine-checkable text run report (full-precision
                best cost, metrics and rectangles; no timings) to file F.
  --report-json F  Write the JSON run report (single run: one report
                object; batch: batch metadata + per-job reports).  Schema:
                cmake/report_schema.json.
  --scenario F:S:SEED[:ar=..][:ws=..][:plain=1]
                Run one generated workload instead of a circuit: family
                (ota|bias|latch|driver), target block count S (4..5000) and
                generator seed.  Constraint scenarios (symmetry pairs,
                matching groups, keep-outs, pre-placed anchors) are on by
                default; plain=1 suppresses them.  ar= sets a target outline
                aspect, ws= extra canvas whitespace.
  --scenario-matrix FAMS:SIZES:NSEEDS[:key=val...]
                Sweep the cross product: comma-separated families x comma-
                separated sizes x generator seeds 1..NSEEDS, run as a
                deterministic job batch (family-major order; per-job search
                seeds from --seed).  Trailing keys apply to every instance.

global options:
  --threads N   Size of the shared numeric thread pool (kernels, rollouts,
                metaheuristic restarts, batch jobs).  Default:
                AFP_NUM_THREADS or the hardware concurrency.  Results are
                identical for any N.
  --tier T      Kernel tier: naive | scalar | avx2 | auto (default auto;
                also settable via AFP_KERNEL_TIER).
  --help, -h    Show this message.

A <circuit> argument is first looked up in the registry (see `afp list`);
otherwise it is read as a SPICE deck (the first line is its title).

Flags may come before or after the positional argument.  A flag that takes
a value needs one: the next token, which must not start with `--`.  The
boolean flags (--constrained, --resume, --parse-only, --help) never take
one.  Unknown options, a missing value, an extra positional argument and
a malformed or out-of-range number are rejected with exit code 2; so is a
malformed deck, with a file:line diagnostic.
)";

using flags::Args;
using flags::UsageError;

const std::vector<flags::Flag> kGlobalFlags = {
    {"threads", true}, {"tier", true}, {"help", false}, {"h", false}};

/// The search flags floorplan and ingest share (see build_search).
const std::vector<flags::Flag> kSearchFlags = {
    {"baseline", true},    {"constrained", false}, {"seed", true},
    {"svg", true},         {"report", true},       {"report-json", true},
    {"restarts", true},    {"iters", true},        {"opt", true},
    {"time-budget", true}, {"quanta", true},       {"job-timeout", true},
    {"max-retries", true}, {"checkpoint", true},   {"resume", false}};

std::vector<flags::Flag> with(std::vector<flags::Flag> a,
                              const std::vector<flags::Flag>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Every command's flags (plus the globals) and positional count; anything
/// else is a usage error (exit code 2) instead of being silently ignored —
/// this also catches flags that only exist on a *different* command.
const std::vector<flags::Command> kCommands = {
    {"list", kGlobalFlags, 0},
    {"list-baselines", kGlobalFlags, 0},
    {"floorplan",
     with(with(kGlobalFlags, kSearchFlags),
          {{"batch", true}, {"scenario", true}, {"scenario-matrix", true}}),
     1},
    {"ingest",
     with(with(kGlobalFlags, kSearchFlags),
          {{"top", true}, {"parse-only", false}}),
     1},
    {"train", with(kGlobalFlags, {{"episodes", true}, {"seed", true},
                                  {"out", true}}),
     0},
    {"eval", with(kGlobalFlags, {{"agent", true}, {"attempts", true},
                                 {"seed", true}, {"constrained", false},
                                 {"svg", true}}),
     1},
    {"graph", with(kGlobalFlags, {{"dot", true}}), 1},
};

/// A registry circuit by name, else a SPICE deck file (ingest::ParseError
/// with file:line when malformed).
netlist::Netlist load_circuit(const std::string& spec) {
  for (const auto& e : netlist::circuit_registry()) {
    if (e.name == spec) return e.make();
  }
  if (!std::ifstream(spec)) {
    throw std::runtime_error("'" + spec +
                             "' is neither a registry circuit nor a file");
  }
  return ingest::parse_file(spec);
}

void print_result(const core::PipelineResult& res) {
  std::printf("blocks: %zu\n", res.recognition.structures.size());
  for (const auto& s : res.recognition.structures) {
    std::printf("  %-26s %-18s %8.1f um2\n", s.name.c_str(),
                structrec::to_string(s.type).c_str(), s.area_um2);
  }
  std::printf("floorplan: area %.1f um2 | dead space %.1f%% | HPWL %.1f um | "
              "reward %.2f | constraints %s\n",
              res.eval.area, res.eval.dead_space * 100.0, res.eval.hpwl,
              res.eval.reward, res.eval.constraints_ok ? "ok" : "VIOLATED");
  std::printf("routing: %zu/%zu nets | %.1f um | %d failed\n",
              res.route.trees.size(), res.instance.nets.size(),
              res.route.total_wirelength, res.route.failed_nets);
  std::printf("layout: %zu wires | %zu vias | DRC %s (%zu) | LVS %s "
              "(%zu opens, %zu shorts)\n",
              res.layout.wires.size(), res.layout.vias.size(),
              res.drc.clean() ? "clean" : "dirty", res.drc.violations.size(),
              res.lvs.clean() ? "clean" : "dirty", res.lvs.open_nets.size(),
              res.lvs.shorted.size());
  std::printf("timing: SR %.3fs | floorplan %.3fs | route %.3fs | "
              "layout %.3fs\n",
              res.timings.recognition_s, res.timings.floorplan_s,
              res.timings.route_s, res.timings.layout_s);
  if (res.quanta > 1) {
    std::printf("search: %ld evaluations over %ld wall-clock quanta\n",
                res.evaluations, res.quanta);
  }
}

int cmd_list() {
  std::printf("%-16s %8s %10s %10s\n", "circuit", "devices", "blocks",
              "training");
  for (const auto& e : netlist::circuit_registry()) {
    const auto nl = e.make();
    std::printf("%-16s %8d %10d %10s\n", e.name.c_str(), nl.num_devices(),
                e.expected_blocks, e.in_training_set ? "yes" : "no");
  }
  return 0;
}

int cmd_list_baselines() {
  for (const auto& name : metaheur::optimizer_names()) {
    auto opt = metaheur::make_optimizer(name);
    std::printf("%-10s encoding %s\n", name.c_str(), opt->encoding());
    for (const auto& spec : opt->describe()) {
      std::printf("    %-18s default %-10s %s\n", spec.key.c_str(),
                  spec.value.c_str(), spec.help.c_str());
    }
  }
  return 0;
}

/// Deterministic run report: everything a reproducibility check needs
/// (method, best cost, metrics, rectangles, routed length) at full
/// precision, and nothing timing-dependent.  Compared bitwise by the e2e
/// determinism test across thread counts, kernel tiers and repeats.
void write_report(const std::string& path, const std::string& baseline,
                  const core::PipelineResult& res) {
  std::ofstream os(path);
  os.precision(17);
  os << "baseline " << baseline << "\n";
  os << "blocks " << res.rects.size() << "\n";
  os << "cost " << metaheur::sp_cost(res.instance, res.rects) << "\n";
  os << "area " << res.eval.area << "\n";
  os << "dead_space " << res.eval.dead_space << "\n";
  os << "hpwl " << res.eval.hpwl << "\n";
  os << "reward " << res.eval.reward << "\n";
  os << "constraints_ok " << (res.eval.constraints_ok ? 1 : 0) << "\n";
  os << "route_wirelength " << res.route.total_wirelength << "\n";
  os << "layout_wires " << res.layout.wires.size() << " vias "
     << res.layout.vias.size() << "\n";
  for (const auto& r : res.rects) {
    os << "rect " << r.x << " " << r.y << " " << r.w << " " << r.h << "\n";
  }
  if (!os) {
    throw std::runtime_error("failed to write report '" + path + "'");
  }
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path);
  os << content << "\n";
  if (!os) {
    throw std::runtime_error("failed to write '" + path + "'");
  }
}

/// Resolves --baseline to a registry name.
std::string baseline_name(const Args& args) {
  const std::string name = args.get("baseline", "sa");
  if (!metaheur::OptimizerRegistry::global().contains(name)) {
    std::string known;
    for (const auto& n : metaheur::optimizer_names()) {
      known += (known.empty() ? "" : ", ") + n;
    }
    throw UsageError("unknown baseline '" + name + "' (registered: " + known +
                     "); see `afp list-baselines`");
  }
  return name;
}

/// Collects --opt k=v[,k=v...] pairs into one option map.
metaheur::Options gather_options(const Args& args) {
  metaheur::Options opts;
  for (const auto& arg : args.get_all("opt")) {
    for (const auto& pair : flags::split(arg, ',')) {
      const auto eq = pair.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw UsageError("option '--opt' expects k=v, got '" + pair + "'");
      }
      opts[pair.substr(0, eq)] = pair.substr(eq + 1);
    }
  }
  return opts;
}

/// Batch inputs: every *.sp file of a directory (sorted), or the non-empty
/// non-comment lines of a manifest file (registry names or netlist paths).
std::vector<std::string> batch_inputs(const std::string& path) {
  namespace fs = std::filesystem;
  std::vector<std::string> inputs;
  if (fs::is_directory(path)) {
    for (const auto& entry : fs::directory_iterator(path)) {
      if (entry.is_regular_file() && entry.path().extension() == ".sp") {
        inputs.push_back(entry.path().string());
      }
    }
    std::sort(inputs.begin(), inputs.end());
  } else {
    std::ifstream is(path);
    if (!is) {
      throw std::runtime_error("cannot open batch manifest '" + path + "'");
    }
    std::string line;
    while (std::getline(is, line)) {
      const auto from = line.find_first_not_of(" \t\r");
      if (from == std::string::npos || line[from] == '#') continue;
      const auto to = line.find_last_not_of(" \t\r");
      inputs.push_back(line.substr(from, to - from + 1));
    }
  }
  if (inputs.empty()) {
    throw std::runtime_error("batch '" + path +
                             "' contains no netlists (*.sp or manifest "
                             "lines)");
  }
  return inputs;
}

/// The fully validated search configuration shared by the floorplan,
/// ingest and scenario paths: pipeline config, resolved optimizer options
/// and the base seed.
struct SearchSetup {
  core::PipelineConfig cfg;
  std::string baseline;
  metaheur::Options resolved;
  std::uint64_t seed = 1;
};

/// Reads the search flags; ranges and cross-field rules are
/// core::validate_search's (shared with afpd), the optimizer options are
/// checked by the optimizer itself.  Every violation is a usage error.
SearchSetup build_search(const Args& args) {
  SearchSetup setup;
  setup.baseline = baseline_name(args);
  setup.seed = args.get_u64("seed", 1);
  core::PipelineConfig& cfg = setup.cfg;
  cfg.constrained = args.has("constrained");
  cfg.optimizer = setup.baseline;
  cfg.options = gather_options(args);
  cfg.search.restarts = args.get_int("restarts", 1);
  if (args.has("iters")) {
    cfg.search.budget.iterations = args.get_int("iters", 0, 1);
  }
  if (args.has("time-budget")) {
    const double budget = args.get_double("time-budget", 0.0);
    if (budget <= 0.0) {
      throw UsageError("option '--time-budget' must be > 0 seconds");
    }
    cfg.search.budget.wall_clock_s = budget;
  }
  if (args.has("quanta")) {
    cfg.search.budget.quanta = args.get_int("quanta", 0, 1);
  }
  if (args.has("job-timeout")) {
    const double deadline = args.get_double("job-timeout", 0.0);
    if (deadline <= 0.0) {
      throw UsageError("option '--job-timeout' must be > 0 seconds");
    }
    cfg.search.budget.deadline_s = deadline;
  }
  cfg.search.retry.max_retries = args.get_int("max-retries", 0);
  if (args.has("checkpoint")) {
    cfg.search.checkpoint_path = args.get("checkpoint", "");
    if (cfg.search.checkpoint_path.empty()) {
      throw UsageError("option '--checkpoint' expects a file path");
    }
  }
  cfg.search.resume = args.has("resume");
  try {
    core::validate_search(cfg.search);
    setup.resolved = metaheur::make_optimizer(cfg.optimizer, cfg.options)
                         ->options();
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
  return setup;
}

/// Runs one circuit through the fault-tolerant job path (watchdog,
/// exception firewall, retry/backoff) and honors --svg/--report/
/// --report-json.  Attempt 0 seeds mt19937_64(seed) exactly as the
/// historic direct pipe.run() call did, so existing goldens stay bitwise
/// identical.
int run_single(const Args& args, const SearchSetup& setup,
               const std::string& name, netlist::Netlist nl) {
  core::JobSpec spec;
  spec.name = name;
  spec.netlist = std::move(nl);
  spec.config = setup.cfg;
  const core::JobReport job =
      core::JobService::run_job(spec, 0, setup.seed, nullptr, nullptr);
  if (job.status != core::JobStatus::kDone) {
    // Out-of-range option values were already rejected as usage errors by
    // the make_optimizer validation above, so any terminal failure here is
    // a genuine runtime failure: exit 1 with the classified error.
    std::fprintf(stderr, "error: job %s after %d attempt%s [%s] %s\n",
                 core::to_string(job.status), job.attempts,
                 job.attempts == 1 ? "" : "s",
                 core::to_string(job.error.kind), job.error.message.c_str());
    return 1;
  }
  if (job.attempts > 1) {
    std::printf("search: succeeded on attempt %d\n", job.attempts);
  }
  const core::PipelineResult& res = job.result;
  print_result(res);
  if (args.has("svg")) {
    layoutgen::write_svg(args.get("svg", "layout.svg"), res.layout);
    std::printf("wrote %s\n", args.get("svg", "layout.svg").c_str());
  }
  if (args.has("report")) {
    write_report(args.get("report", "report.txt"), setup.baseline, res);
    std::printf("wrote %s\n", args.get("report", "report.txt").c_str());
  }
  if (args.has("report-json")) {
    const std::string path = args.get("report-json", "report.json");
    write_file(path, core::report_json(res, name, setup.baseline,
                                       setup.resolved, setup.cfg.search,
                                       setup.seed));
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

/// Batch job at manifest position `pos`: its seed and checkpoint path
/// derive from the position, so a skipped sibling never shifts them.
core::JobSpec batch_job(const SearchSetup& setup, std::size_t pos,
                        std::string name) {
  core::JobSpec spec;
  spec.name = std::move(name);
  spec.config = setup.cfg;
  spec.seed = core::JobService::job_seed(setup.seed, pos);
  if (!setup.cfg.search.checkpoint_path.empty()) {
    spec.config.search.checkpoint_path += ".job" + std::to_string(pos);
  }
  return spec;
}

/// Runs the loadable `jobs` (at manifest positions `pos`) as one
/// JobService batch, puts each report back at its position in `reports`
/// (which already holds the entries that failed to load), prints the
/// result table and summary, honors --report-json and returns the exit
/// code: 0 every job done, 1 none, 3 partial failure (2 stays usage-only).
int run_batch(const Args& args, const SearchSetup& setup, const char* label,
              const std::vector<core::JobSpec>& jobs,
              const std::vector<std::size_t>& pos,
              std::vector<core::JobReport> reports) {
  std::printf("%s: %zu jobs (%zu skipped) | optimizer %s | %d threads | "
              "seed %llu%s\n",
              label, reports.size(), reports.size() - jobs.size(),
              setup.baseline.c_str(), num::num_threads(),
              static_cast<unsigned long long>(setup.seed),
              setup.cfg.search.budget.wall_clock_s > 0.0 ? " | time-budgeted"
                                                         : "");
  std::mutex io_mu;
  core::JobServiceOptions sopts;
  sopts.base_seed = setup.seed;
  sopts.on_progress = [&](const core::JobProgress& p) {
    std::lock_guard<std::mutex> lock(io_mu);
    std::printf("  [%zu] %-24s %s (%.2fs)%s\n", p.id, p.name.c_str(),
                core::to_string(p.status), p.runtime_s,
                p.attempt > 0 ? " [retry]" : "");
  };
  auto ran = core::JobService::run_batch(jobs, sopts);
  for (std::size_t j = 0; j < ran.size(); ++j) {
    reports[pos[j]] = std::move(ran[j]);
  }

  std::printf("\n%-24s %-10s %12s %12s %11s %10s %8s\n", "job", "status",
              "cost", "HPWL(um)", "constraints", "runtime", "quanta");
  std::size_t done = 0, satisfied = 0, constrained = 0;
  for (const auto& r : reports) {
    if (r.status != core::JobStatus::kDone) {
      std::printf("%-24s %-10s %12s %12s %11s %9.2fs %8s  [%s] %s\n",
                  r.name.c_str(), core::to_string(r.status), "-", "-", "-",
                  r.runtime_s, "-", core::to_string(r.error.kind),
                  r.error.message.c_str());
      continue;
    }
    ++done;
    // Constrained jobs show the violated/total item breakdown, so a
    // near-miss reads differently from an unconstrained run.
    char cons[24];
    if (r.result.instance.constraints.empty()) {
      std::snprintf(cons, sizeof cons, "none");
    } else {
      ++constrained;
      if (r.result.eval.constraints_ok) {
        ++satisfied;
        std::snprintf(cons, sizeof cons, "ok");
      } else {
        std::snprintf(cons, sizeof cons, "%d/%d",
                      r.result.eval.constraint_violations,
                      r.result.eval.constraint_items);
      }
    }
    std::printf("%-24s %-10s %12.4f %12.1f %11s %9.2fs %8ld\n",
                r.name.c_str(), core::to_string(r.status),
                metaheur::sp_cost(r.result.instance, r.result.rects),
                r.result.eval.hpwl, cons, r.runtime_s, r.result.quanta);
  }
  std::printf("\n%s: %zu/%zu done | constraints satisfied %zu/%zu\n", label,
              done, reports.size(), satisfied, constrained);
  if (args.has("report-json")) {
    const std::string path = args.get("report-json", "");
    write_file(path, core::batch_report_json(
                         reports, setup.seed,
                         setup.cfg.search.budget.wall_clock_s,
                         num::num_threads()));
    std::printf("wrote %s\n", path.c_str());
  }
  if (done == reports.size()) return 0;
  return done == 0 ? 1 : 3;
}

/// --batch <dir|manifest>.  An entry that fails to load (unreadable file,
/// malformed deck) does not abort the batch: it is reported as a failed
/// job with kind invalid_config.
int cmd_floorplan_batch(const Args& args, const SearchSetup& setup) {
  const auto inputs = batch_inputs(args.get("batch", ""));
  std::vector<core::JobSpec> jobs;
  std::vector<std::size_t> pos;
  std::vector<core::JobReport> reports(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    core::JobSpec spec = batch_job(
        setup, i, std::filesystem::path(inputs[i]).stem().string());
    try {
      spec.netlist = load_circuit(inputs[i]);
    } catch (const std::exception& e) {
      core::JobReport& r = reports[i];
      r.id = i;
      r.name = spec.name;
      r.optimizer = spec.config.optimizer;
      r.search = spec.config.search;
      r.seed = spec.seed;
      r.status = core::JobStatus::kFailed;
      r.error = {core::JobErrorKind::kInvalidConfig, e.what(), i, -1};
      std::fprintf(stderr, "batch: skipping '%s': %s\n", inputs[i].c_str(),
                   e.what());
      continue;
    }
    pos.push_back(i);
    jobs.push_back(std::move(spec));
  }
  return run_batch(args, setup, "batch", jobs, pos, std::move(reports));
}

/// --scenario-matrix FAMS:SIZES:NSEEDS[:key=val...] — the cross product of
/// generated workloads as one deterministic job batch.
int cmd_scenario_matrix(const Args& args, const SearchSetup& setup) {
  const std::string text = args.get("scenario-matrix", "");
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t at = text.find(':', start);
    parts.push_back(text.substr(start, at - start));
    if (at == std::string::npos) break;
    start = at + 1;
  }
  if (parts.size() < 3) {
    throw UsageError(
        "option '--scenario-matrix' expects FAMS:SIZES:NSEEDS[:key=val...], "
        "got '" + text + "'");
  }
  std::string suffix;
  for (std::size_t i = 3; i < parts.size(); ++i) suffix += ":" + parts[i];
  long long nseeds = 0;
  if (!metaheur::parse_strict_int(parts[2], &nseeds) || nseeds < 1) {
    throw UsageError("option '--scenario-matrix' NSEEDS must be a positive "
                     "integer, got '" + parts[2] + "'");
  }

  // Family-major, then size, then seed: the instance list (and with it the
  // per-job search seeds) is a pure function of the matrix spec.
  std::vector<core::JobSpec> jobs;
  for (const auto& fam : flags::split(parts[0], ',')) {
    for (const auto& size : flags::split(parts[1], ',')) {
      for (long long s = 1; s <= nseeds; ++s) {
        ingest::ScenarioSpec spec;
        try {
          spec = ingest::ScenarioSpec::parse(fam + ":" + size + ":" +
                                             std::to_string(s) + suffix);
        } catch (const std::invalid_argument& e) {
          throw UsageError(e.what());
        }
        auto sc = ingest::make_scenario(spec);
        core::JobSpec job = batch_job(setup, jobs.size(), spec.to_string());
        job.netlist = std::move(sc.netlist);
        job.config.scenario_constraints = std::move(sc.constraints);
        jobs.push_back(std::move(job));
      }
    }
  }
  std::vector<std::size_t> pos(jobs.size());
  std::iota(pos.begin(), pos.end(), std::size_t{0});
  return run_batch(args, setup, "matrix", jobs, pos,
                   std::vector<core::JobReport>(jobs.size()));
}

int cmd_floorplan(const Args& args) {
  const bool batch = args.has("batch");
  const bool scenario = args.has("scenario");
  const bool matrix = args.has("scenario-matrix");
  const int sources = static_cast<int>(!args.positional.empty()) +
                      static_cast<int>(batch) + static_cast<int>(scenario) +
                      static_cast<int>(matrix);
  if (sources == 0) {
    std::fprintf(stderr, "usage: afp floorplan <circuit> [--baseline sa]\n");
    return 2;
  }
  if (sources > 1) {
    throw UsageError("<circuit>, --batch, --scenario and --scenario-matrix "
                     "are mutually exclusive workload sources");
  }
  if ((batch || matrix) && (args.has("svg") || args.has("report"))) {
    throw UsageError(
        "--svg/--report apply to single-circuit runs; batches emit "
        "--report-json");
  }
  const SearchSetup setup = build_search(args);
  if (batch) return cmd_floorplan_batch(args, setup);
  if (matrix) return cmd_scenario_matrix(args, setup);
  if (scenario) {
    ingest::ScenarioSpec spec;
    try {
      spec = ingest::ScenarioSpec::parse(args.get("scenario", ""));
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
    auto sc = ingest::make_scenario(spec);
    SearchSetup with_overlay = setup;
    with_overlay.cfg.scenario_constraints = std::move(sc.constraints);
    return run_single(args, with_overlay, spec.to_string(),
                      std::move(sc.netlist));
  }
  return run_single(args, setup, args.positional[0],
                    load_circuit(args.positional[0]));
}

/// `afp ingest <deck.sp>`: SPICE-deck front end.  Parse + elaborate, then
/// either stop (--parse-only) or run the full pipeline like floorplan.
int cmd_ingest(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: afp ingest <deck.sp> [--top CELL] "
                         "[--parse-only]\n");
    return 2;
  }
  ingest::ParseOptions popts;
  popts.top = args.get("top", "");
  netlist::Netlist nl = ingest::parse_file(args.positional[0], popts);
  if (args.has("parse-only")) {
    std::printf("deck: %s\n", args.positional[0].c_str());
    std::printf("top: %s\n", nl.name().c_str());
    std::printf("devices: %d\n", nl.num_devices());
    std::printf("nets: %zu\n", nl.nets().size());
    return 0;
  }
  return run_single(args, build_search(args), nl.name(), std::move(nl));
}

int cmd_train(const Args& args) {
  core::TrainOptions opt = core::TrainOptions::fast(
      static_cast<unsigned>(args.get_u64("seed", 1)));
  opt.hcl.circuits = {"ota_small", "bias_small", "ota1", "ota2", "bias1"};
  opt.hcl.episodes_per_circuit = args.get_int("episodes", 64, 1);
  opt.ppo.n_envs = 4;
  opt.ppo.n_steps = 32;
  opt.ppo.minibatch = 64;
  opt.ppo.lr = 1e-3f;
  std::printf("training: %zu circuits x %d episodes...\n",
              opt.hcl.circuits.size(), opt.hcl.episodes_per_circuit);
  const auto agent = core::train_agent(opt);
  std::printf("done: %zu PPO iterations, final mean episode reward %.2f\n",
              agent.rl_history.size(),
              agent.rl_history.empty()
                  ? 0.0
                  : agent.rl_history.back().mean_episode_reward);
  const std::string prefix = args.get("out", "afp_agent");
  nn::save_module(*agent.policy, prefix + "_policy.bin");
  nn::save_module(*agent.encoder, prefix + "_encoder.bin");
  std::printf("wrote %s_policy.bin and %s_encoder.bin\n", prefix.c_str(),
              prefix.c_str());
  return 0;
}

int cmd_eval(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: afp eval <circuit> --agent prefix\n");
    return 2;
  }
  const std::string prefix = args.get("agent", "afp_agent");
  // Validate every numeric option before any heavy work or file I/O.
  const std::uint64_t seed = args.get_u64("seed", 1);
  const int attempts = args.get_int("attempts", 8, 1);
  std::mt19937_64 rng(seed);
  rgcn::RewardModel encoder(rng);
  rl::ActorCritic policy(rl::PolicyConfig::fast(), rng);
  nn::load_module(encoder, prefix + "_encoder.bin");
  nn::load_module(policy, prefix + "_policy.bin");

  const auto nl = load_circuit(args.positional[0]);
  core::PipelineConfig cfg;
  cfg.constrained = args.has("constrained");
  cfg.rl_attempts = attempts;
  core::FloorplanPipeline pipe(cfg);
  const auto res = pipe.run(nl, policy, encoder, rng);
  print_result(res);
  if (args.has("svg")) {
    layoutgen::write_svg(args.get("svg", "layout.svg"), res.layout);
    std::printf("wrote %s\n", args.get("svg", "layout.svg").c_str());
  }
  return 0;
}

int cmd_graph(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: afp graph <circuit> [--dot out.dot]\n");
    return 2;
  }
  const auto nl = load_circuit(args.positional[0]);
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  graphir::apply_constraints(g, graphir::default_constraints(g));
  std::printf("graph '%s': %d nodes\n", g.name.c_str(), g.num_nodes());
  static const char* kRel[] = {"connectivity", "h-align", "v-align", "h-sym",
                               "v-sym"};
  for (int r = 0; r < graphir::kNumRelations; ++r) {
    std::printf("  %-12s %zu edges\n", kRel[r],
                g.edges[static_cast<std::size_t>(r)].size());
  }
  if (args.has("dot")) {
    const std::string path = args.get("dot", "");
    std::ostringstream os;
    os << "graph g {\n";
    for (int i = 0; i < g.num_nodes(); ++i) {
      os << "  n" << i << " [label=\""
         << g.nodes[static_cast<std::size_t>(i)].name << "\"];\n";
    }
    for (int r = 0; r < graphir::kNumRelations; ++r) {
      for (const auto& [u, v] : g.edges[static_cast<std::size_t>(r)]) {
        os << "  n" << u << " -- n" << v << ";\n";
      }
    }
    os << "}";  // write_file appends the final newline
    write_file(path, os.str());
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

/// Exit path for every command: flush stdout and turn a write failure
/// (EPIPE from `afp ... | head -1`, a full disk, ...) into a clean nonzero
/// exit with a stderr note instead of a SIGPIPE kill or silent truncation.
int finish(int rc) {
  if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
    std::fprintf(stderr, "error: writing to stdout failed: %s\n",
                 std::strerror(errno));
    return rc == 0 ? 1 : rc;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // A closed downstream pipe must surface as an EPIPE write error (caught
  // in finish()), not kill the process with SIGPIPE — report files named by
  // --report/--report-json are still written either way.
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const auto it =
      std::find_if(kCommands.begin(), kCommands.end(),
                   [&](const flags::Command& c) { return c.name == cmd; });
  if (it == kCommands.end()) {
    std::fprintf(stderr, "error: unknown command '%s'\n\n", cmd.c_str());
    std::fputs(kUsage, stderr);
    return 2;
  }
  try {
    const Args args = Args::parse(argc, argv, 2, *it);
    if (args.has("help") || args.has("h")) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    // Global knobs, honored by every command: pool size and kernel tier.
    if (args.has("threads")) {
      num::set_num_threads(args.get_int("threads", 0, 0));
    }
    if (args.has("tier")) {
      num::KernelTier tier;
      if (!num::parse_kernel_tier(args.get("tier", "").c_str(), &tier)) {
        throw UsageError("unknown kernel tier '" + args.get("tier", "") +
                         "'");
      }
      num::set_kernel_tier(tier);
    }
    if (cmd == "list") return finish(cmd_list());
    if (cmd == "list-baselines") return finish(cmd_list_baselines());
    if (cmd == "floorplan") return finish(cmd_floorplan(args));
    if (cmd == "ingest") return finish(cmd_ingest(args));
    if (cmd == "train") return finish(cmd_train(args));
    if (cmd == "eval") return finish(cmd_eval(args));
    if (cmd == "graph") return finish(cmd_graph(args));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n\n", e.what());
    std::fputs(kUsage, stderr);
    return 2;
  } catch (const ingest::ParseError& e) {
    // A malformed deck is an input problem like a bad flag: a structured
    // file:line diagnostic and exit 2, never a crash (no usage dump — the
    // flags were fine).
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  // Unreachable: cmd was found in kCommands above and every listed command
  // is dispatched in the try block.
  return 2;
}
