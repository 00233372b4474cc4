// perfbench — the repository benchmark.
//
//   perfbench --workload table1|scenario_large|service_mix --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//
// Runs one workload in process against the library's public API for about
// S seconds and prints, as the last line of standard output, one JSON
// object {"correct", "attempted", "failed", "metrics"}.  --trace 0 gives
// the end-to-end metrics (tracing off); --trace 1 gives the per-layer
// split from a separate traced run.  The lines before it record the box
// and the sample counts.  perfbench/run.py builds and runs this binary.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "bench.hpp"
#include "numeric/parallel.hpp"
#include "numeric/simd.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload table1|scenario_large|service_mix "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
  return 2;
}

std::string json_number(double v) {
  // A failed job's latency is +inf; JSON has no infinity, so print the
  // largest double, which still misses any limit.
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val.c_str());
      have_seconds = opt.seconds > 0.0;
    } else if (key == "--trace") {
      opt.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else if (key == "--work-dir") {
      opt.work_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace) {
    return usage();
  }

  const char* env_threads = std::getenv("AFP_NUM_THREADS");
  std::printf("box: nproc %ld | AFP_NUM_THREADS %s | pool threads %d | "
              "kernel tier %s | build %s | compiler %s | seed %llu\n",
              ::sysconf(_SC_NPROCESSORS_ONLN),
              env_threads ? env_threads : "(unset)", afp::num::num_threads(),
              afp::num::kernel_tier_name(afp::num::kernel_tier()),
              PERFBENCH_BUILD_TYPE, __VERSION__,
              static_cast<unsigned long long>(opt.seed));

  perfbench::WorkloadResult res;
  const perfbench::CpuSample cpu0 = perfbench::cpu_sample();
  try {
    if (opt.workload == "table1") {
      res = perfbench::run_table1(opt);
    } else if (opt.workload == "scenario_large") {
      res = perfbench::run_scenario_large(opt);
    } else if (opt.workload == "service_mix") {
      res = perfbench::run_service_mix(opt);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& note : res.notes) std::printf("%s\n", note.c_str());
  // Time the hypervisor gave to other guests while this run wanted the CPU:
  // a high share means the wall-clock figures of this run are inflated.
  std::printf("host steal during the run: %.1f%% of the CPU time wanted\n",
              100.0 * perfbench::steal_share(cpu0, perfbench::cpu_sample()));
  for (const std::string& err : res.errors) {
    std::printf("CHECK FAILED: %s\n", err.c_str());
  }
  std::string json = "{\"correct\": ";
  json += res.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const perfbench::Metric& m = res.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
