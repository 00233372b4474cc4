// The in-process workloads: `table1` (the paper's six Table I circuits x
// {rgcn-rl, sa, pt} x 10 seeds) and `scenario_large` (four 300-block
// generated scenarios with constraint overlays, default SA).
//
// Both run sequential FloorplanPipeline::run jobs in passes until the
// measured time is up.  Every pass runs the same netlists with fresh job
// seeds; the exact quality metrics come from the first pass, so they are a
// pure function of --seed.  The traced run replaces run() by run_staged()
// and checks each staged job bitwise against run() for the same seed.
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "core/training.hpp"
#include "ingest/scenario.hpp"
#include "netlist/library.hpp"

namespace perfbench {

namespace core = afp::core;

namespace {

struct PipelineJob {
  std::string circuit;
  std::shared_ptr<const afp::netlist::Netlist> netlist;
  std::unique_ptr<core::FloorplanPipeline> pipeline;
  Agent agent;
  std::uint64_t tag = 0;  ///< job identity; the seed mixes in the pass
};

core::PipelineResult run_reference(const PipelineJob& job,
                                   std::mt19937_64& rng) {
  if (job.agent.policy != nullptr) {
    return job.pipeline->run(*job.netlist, *job.agent.policy,
                             *job.agent.encoder, rng);
  }
  return job.pipeline->run(*job.netlist, rng);
}

void fail(WorkloadResult& out, const std::string& what) {
  out.correct = false;
  if (out.errors.size() < 8) out.errors.push_back(what);
}

/// Untraced measured phase: end-to-end metrics.
void measure(const RunOptions& opt, const std::vector<PipelineJob>& jobs,
             double setup_s, WorkloadResult& out) {
  std::vector<JobSample> samples;
  std::vector<Quality> exact;
  const auto t0 = Clock::now();
  for (int pass = 0; pass == 0 || seconds_since(t0) < opt.seconds; ++pass) {
    for (const PipelineJob& job : jobs) {
      const std::uint64_t seed = derive(opt.seed, job.tag, pass);
      std::mt19937_64 rng(seed);
      JobSample sample;
      const auto j0 = Clock::now();
      try {
        const core::PipelineResult res = run_reference(job, rng);
        sample.latency_s = seconds_since(j0);
        const std::string err = check_result(res);
        if (!err.empty()) fail(out, job.circuit + " seed " +
                                        std::to_string(seed) + ": " + err);
        if (pass == 0) exact.push_back(quality_of(res));
      } catch (const std::exception& e) {
        sample.failed = true;
        std::fprintf(stderr, "perfbench: %s seed %llu failed: %s\n",
                     job.circuit.c_str(),
                     static_cast<unsigned long long>(seed), e.what());
      }
      samples.push_back(sample);
    }
  }
  add_end_to_end(out, setup_s, seconds_since(t0), peak_rss_mb(), samples,
                 exact);
}

/// Traced run: staged spans per call, each job checked against run().
void measure_traced(const RunOptions& opt, const std::vector<PipelineJob>& jobs,
                    double make_scenario_s, WorkloadResult& out) {
  Tracer tracer;
  LayerCounts counts;
  double traced_s = 0.0, untraced_s = 0.0;
  long traced_jobs = 0;
  const auto t0 = Clock::now();
  for (int pass = 0; pass == 0 || seconds_since(t0) < opt.seconds; ++pass) {
    for (const PipelineJob& job : jobs) {
      const std::uint64_t seed = derive(opt.seed, job.tag, pass);
      const core::PipelineConfig& cfg = job.pipeline->config();
      std::string staged_fp, ref_fp;
      auto staged = [&] {
        std::mt19937_64 rng(seed);
        StagedCounters sc;
        const auto j0 = Clock::now();
        const core::PipelineResult res = run_staged(
            cfg, *job.netlist, job.agent, rng, tracer, ++traced_jobs, &sc);
        traced_s += seconds_since(j0);
        const std::string err = check_result(res);
        if (!err.empty()) fail(out, job.circuit + ": " + err);
        if (pass == 0) add_layer_counts(counts, res, sc);
        staged_fp = fingerprint(res, job.circuit, cfg, seed);
      };
      auto reference = [&] {
        std::mt19937_64 rng(seed);
        const auto j0 = Clock::now();
        const core::PipelineResult res = run_reference(job, rng);
        untraced_s += seconds_since(j0);
        ref_fp = fingerprint(res, job.circuit, cfg, seed);
      };
      // Alternate which side runs first so neither gets the warmer cache.
      if (traced_jobs % 2 == 0) {
        staged();
        reference();
      } else {
        reference();
        staged();
      }
      if (staged_fp != ref_fp) {
        fail(out, job.circuit + " seed " + std::to_string(seed) +
                      ": staged pipeline differs from FloorplanPipeline::run");
      }
      out.attempted += 1;
    }
  }
  add_per_layer(out, tracer, traced_jobs, counts, make_scenario_s, traced_s,
                untraced_s);
  add_service_layer(out, ServiceLayer{});
  tracer.write_jsonl(opt.work_dir + "/spans-" + opt.workload + ".jsonl");
}

WorkloadResult run_jobs(const RunOptions& opt,
                        const std::vector<PipelineJob>& jobs, double setup_s,
                        double make_scenario_s) {
  WorkloadResult out;
  if (opt.trace) {
    measure_traced(opt, jobs, make_scenario_s, out);
  } else {
    measure(opt, jobs, setup_s, out);
  }
  return out;
}

}  // namespace

WorkloadResult run_table1(const RunOptions& opt) {
  static const char* const kCircuits[] = {"ota1",   "ota2",   "bias1",
                                          "rs_latch", "driver", "bias2"};
  static const char* const kMethods[] = {"rgcn-rl", "sa", "pt"};
  constexpr int kSeedsPerPair = 10;
  constexpr int kSetupRepeats = 5;
  // The agent stands for a shipped model, so its training seed is part of
  // the workload, not of --seed: one agent's quality would otherwise swamp
  // the 60 RL jobs' seed-to-seed variation.
  constexpr unsigned kAgentSeed = 1;

  // Set-up: the six netlists and a TrainOptions::fast agent, repeated; the
  // last repetition's inputs are the ones measured.
  std::vector<double> setup_times;
  std::vector<std::shared_ptr<const afp::netlist::Netlist>> netlists;
  core::TrainedAgent agent;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    netlists.clear();
    for (const char* name : kCircuits) {
      for (const auto& e : afp::netlist::circuit_registry()) {
        if (e.name == name) {
          netlists.push_back(
              std::make_shared<const afp::netlist::Netlist>(e.make()));
        }
      }
    }
    agent = core::train_agent(core::TrainOptions::fast(kAgentSeed));
    setup_times.push_back(seconds_since(t0));
  }

  std::vector<PipelineJob> jobs;
  for (std::size_t c = 0; c < netlists.size(); ++c) {
    for (std::size_t m = 0; m < 3; ++m) {
      for (int k = 0; k < kSeedsPerPair; ++k) {
        PipelineJob job;
        job.circuit = std::string(kCircuits[c]) + "/" + kMethods[m];
        job.netlist = netlists[c];
        core::PipelineConfig cfg;
        if (m == 0) {
          job.agent = Agent{agent.policy.get(), agent.encoder.get()};
        } else {
          cfg.optimizer = kMethods[m];
        }
        job.pipeline = std::make_unique<core::FloorplanPipeline>(cfg);
        job.tag = derive(0x7ab1e1, c, m, static_cast<std::uint64_t>(k));
        jobs.push_back(std::move(job));
      }
    }
  }
  return run_jobs(opt, jobs, percentile(setup_times, 0.5), 0.0);
}

WorkloadResult run_scenario_large(const RunOptions& opt) {
  constexpr int kBlocks = 300;
  // The four netlists are fixed designs (family:300:1), like the Table I
  // circuits; --seed varies the job seeds.
  constexpr std::uint64_t kScenarioSeed = 1;
  constexpr int kSetupRepeats = 51;

  std::vector<double> setup_times;
  std::vector<afp::ingest::Scenario> scenarios;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    scenarios.clear();
    for (const std::string& family : afp::ingest::scenario_families()) {
      afp::ingest::ScenarioSpec spec;
      spec.family = family;
      spec.size = kBlocks;
      spec.seed = kScenarioSeed;
      scenarios.push_back(afp::ingest::make_scenario(spec));
    }
    setup_times.push_back(seconds_since(t0));
  }

  std::vector<PipelineJob> jobs;
  std::uint64_t k = 0;
  for (afp::ingest::Scenario& sc : scenarios) {
    PipelineJob job;
    job.circuit = sc.spec.to_string();
    job.netlist =
        std::make_shared<const afp::netlist::Netlist>(std::move(sc.netlist));
    core::PipelineConfig cfg;
    cfg.scenario_constraints = std::move(sc.constraints);
    job.pipeline = std::make_unique<core::FloorplanPipeline>(std::move(cfg));
    job.tag = derive(0x5ca1e, k++);
    jobs.push_back(std::move(job));
  }
  const double setup_s = percentile(setup_times, 0.5);
  return run_jobs(opt, jobs, setup_s, setup_s);
}

}  // namespace perfbench
