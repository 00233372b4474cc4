// Shared pieces of the perfbench harness: run options, the per-job record
// every workload fills, the span tracer, the staged (traced) pipeline and
// the result of one workload run.
//
// The harness only observes the library from outside: it calls public
// functions and times them, and never changes what they compute.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "rl/policy.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// SplitMix64 finalizer: every seed the benchmark uses is derived from the
/// --seed argument through this mix, so one seed fixes every input.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
inline std::uint64_t derive(std::uint64_t seed, std::uint64_t a,
                            std::uint64_t b = 0, std::uint64_t c = 0) {
  return mix(mix(mix(mix(seed) ^ a) ^ b) ^ c);
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the span file and the service socket directory go (relative to
  /// the working directory; must exist).
  std::string work_dir = ".";
};

/// Per-job outcome.  A failed job enters the latency percentiles as +inf,
/// so it counts as missing any latency limit instead of dropping out.
struct JobSample {
  double latency_s = 0.0;
  bool failed = false;
};

/// The exact, seed-determined output metrics of one job (from its result).
struct Quality {
  double dead_space = 0.0;
  double hpwl = 0.0;
  long drc_violations = 0;
  long lvs_shorts = 0;
  long lvs_opens = 0;
  long constraint_violations = 0;
  long constraint_items = 0;
};
Quality quality_of(const afp::core::PipelineResult& res);
/// Adds q's integer counts (not dead space / HPWL) into `into`.
void add_counts(Quality& into, const Quality& q);

/// Validity checks on one finished job; returns "" when the result is a
/// complete, overlap-free, finite floorplan with a routed layout.
std::string check_result(const afp::core::PipelineResult& res);

/// Report bytes with the wall-clock `timings` and the schedule-dependent
/// `tt_cache` members blanked: the bitwise fingerprint of a job's output.
std::string normalize_report(std::string report);
/// FNV-1a of normalize_report(report): what the service workload keeps per
/// job instead of the bytes, so the check adds no memory to the measured
/// phase.
std::uint64_t report_hash(const std::string& report);
/// Fingerprint of a result: normalized report plus the DRC/LVS counts.
std::string fingerprint(const afp::core::PipelineResult& res,
                        const std::string& circuit,
                        const afp::core::PipelineConfig& cfg,
                        std::uint64_t seed);

/// In-memory span recorder.  A span has a name, its job, its parent span
/// and start/end offsets from the tracer's epoch; spans are written out
/// once, when the run ends.
class Tracer {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root (a job span)
    std::uint64_t job = 0;
    const char* name = "";
    double t0 = 0.0;
    double t1 = 0.0;
  };

  Tracer() : epoch_(Clock::now()) {}
  /// Opens a span; close it with end(id).
  std::uint64_t begin(const char* name, std::uint64_t job,
                      std::uint64_t parent);
  void end(std::uint64_t id);

  /// Total seconds per span name.
  std::map<std::string, double> totals() const;
  /// Root spans' durations minus the time their children cover.
  double self_seconds_of_roots() const;
  void write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer& t, const char* name, std::uint64_t job, std::uint64_t parent)
      : t_(t), id_(t.begin(name, job, parent)) {}
  ~Scoped() { t_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Tracer& t_;
  std::uint64_t id_;
};

/// The RL agent a job floorplans with (null members: registry optimizer).
struct Agent {
  const afp::rl::ActorCritic* policy = nullptr;
  const afp::rgcn::RewardModel* encoder = nullptr;
};

/// Counters of a staged job that its PipelineResult does not carry.
struct StagedCounters {
  long tt_hits = 0;
  long tt_lookups = 0;
};
/// Calls the pipeline's public functions in the order of
/// FloorplanPipeline::prepare / run / back_half, with a span around each
/// call, and assembles the same PipelineResult run() returns.  TT hits and
/// lookups are added to `counters` (may be null).
afp::core::PipelineResult run_staged(const afp::core::PipelineConfig& cfg,
                                     const afp::netlist::Netlist& nl,
                                     const Agent& agent, std::mt19937_64& rng,
                                     Tracer& tracer, std::uint64_t job,
                                     StagedCounters* counters);

/// One named metric as the final JSON line prints it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main().
struct WorkloadResult {
  bool correct = true;
  std::vector<std::string> errors;  ///< why `correct` is false
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  /// Lines printed before the JSON result (sample counts, exact metrics).
  std::vector<std::string> notes;
};

/// Linear-interpolated percentile (q in [0, 1]) of samples; +inf samples
/// sort last.
double percentile(std::vector<double> v, double q);

/// End-to-end metrics shared by every workload (the `--trace 0` set).
/// `peak_rss_mb` is read when the measured phase ends, before any replay
/// the benchmark does to check outputs.
void add_end_to_end(WorkloadResult& out, double setup_s, double wall_s,
                    double peak_rss_mb, const std::vector<JobSample>& jobs,
                    const std::vector<Quality>& exact);
/// Work and quality counts of staged jobs, summed over the exact job set.
struct LayerCounts {
  long blocks = 0;
  long evaluations = 0;
  long tt_hits = 0;
  long tt_lookups = 0;
  long nets = 0;
  long failed_nets = 0;
  double wirelength = 0.0;
  long wires = 0;
  long vias = 0;
  Quality q;  ///< integer counts only (add_counts)
  long jobs = 0;

  LayerCounts& operator+=(const LayerCounts& o);
};
void add_layer_counts(LayerCounts& c, const afp::core::PipelineResult& res,
                      const StagedCounters& sc);
/// Per-layer metrics (the `--trace 1` set, service layer aside): times are
/// span totals over `traced_jobs`, counts come from `counts`.
void add_per_layer(WorkloadResult& out, const Tracer& tracer, long traced_jobs,
                   const LayerCounts& counts, double make_scenario_s,
                   double traced_wall_s, double untraced_wall_s);

/// Peak resident set of this process, MiB (VmHWM).
double peak_rss_mb();

/// Machine-wide CPU time counters from /proc/stat, to report which share
/// of the CPU time this machine wanted (busy + stolen) the hypervisor gave
/// to other guests (steal) during a run.
struct CpuSample {
  double steal = 0.0;
  double wanted = 0.0;
};
CpuSample cpu_sample();
double steal_share(const CpuSample& a, const CpuSample& b);

WorkloadResult run_table1(const RunOptions& opt);
WorkloadResult run_scenario_large(const RunOptions& opt);
WorkloadResult run_service_mix(const RunOptions& opt);

/// Service-layer metrics appended to a traced run (zeros when the workload
/// does not go through the service).
struct ServiceLayer {
  double queue_wait_ms = 0.0;
  double run_ms = 0.0;
  double overhead_ms = 0.0;
  long parked = 0;
  long rejected = 0;
  long dropped_progress = 0;
};
void add_service_layer(WorkloadResult& out, const ServiceLayer& s);

}  // namespace perfbench
