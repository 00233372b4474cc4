// The `service_mix` workload: an in-process afpd Server on a Unix socket
// with the default admission settings, driven by a closed loop of four
// clients.  Each client submits SA jobs back to back (the next submit goes
// out only when the previous result came back), cycling through all 14
// registry circuits with distinct seeds.
//
// Every served report is checked byte for byte (timings and tt_cache
// blanked) against the in-process pipeline report for the same (circuit,
// seed).  The untraced run replays through JobService::run_job; the traced
// run replays each job through run_staged() as well, which gives the
// per-layer split, and reads the service split from client-side frame
// timestamps plus a `stats` request.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "core/job_service.hpp"
#include "core/report.hpp"
#include "netlist/library.hpp"
#include "numeric/parallel.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/server.hpp"

namespace perfbench {

namespace core = afp::core;
namespace service = afp::service;

namespace {

constexpr int kClients = 4;
constexpr int kSetupRepeats = 51;
/// Rounds of the 14 circuits per client whose results give the exact
/// metrics; every client completes them whatever the run length.
constexpr int kExactRounds = 3;

/// One served job as the client saw it (times in seconds since the
/// measured phase began).
struct Served {
  std::string circuit;
  std::uint64_t seed = 0;
  int round = 0;  ///< k / 14
  double submit = 0.0, accepted = -1.0, running = -1.0, result = -1.0;
  bool queued = false;
  bool rejected = false;
  bool done = false;
  std::uint64_t report = 0;  ///< report_hash of the served report
};

/// A started server with its connected clients.
struct Live {
  std::unique_ptr<service::Server> server;
  std::thread serve;
  std::vector<service::Client> clients;

  void stop() {
    clients.clear();
    if (server) server->request_drain();
    if (serve.joinable()) serve.join();
    server.reset();
  }
  ~Live() { stop(); }
};

void start(Live& live, const std::string& sock) {
  service::ServerConfig cfg;
  cfg.unix_path = sock;
  live.server = std::make_unique<service::Server>(cfg);
  live.server->start();
  service::Server* server = live.server.get();
  live.serve = std::thread([server] { server->serve(); });
  for (int c = 0; c < kClients; ++c) {
    live.clients.push_back(service::Client::connect_unix(sock));
    live.clients.back().ping();
  }
}

/// Submits one job and reads frames until its result, stamping the
/// accepted reply, the `running` progress frame and the result.
void serve_one(service::Client& client, Served& job, Clock::time_point t0) {
  auto now = [&] { return seconds_since(t0); };
  job.submit = now();
  client.send_frame("{\"type\": \"submit\", \"circuit\": \"" + job.circuit +
                    "\", \"seed\": " + std::to_string(job.seed) +
                    ", \"priority\": 0}");
  std::uint64_t id = 0;
  for (;;) {
    const std::string payload = client.read_frame();
    const double t = now();
    const service::JsonValue v = service::json_parse(payload);
    const std::string& type = v.at("type").as_string();
    if (type == "keepalive") {
      client.send_frame("{\"type\": \"keepalive_ack\", \"seq\": " +
                        std::to_string(v.at("seq").as_uint("seq")) + "}");
    } else if (type == "accepted") {
      id = v.at("job").as_uint("job");
      job.accepted = t;
      job.queued = v.at("queued").as_bool();
    } else if (type == "error") {
      job.rejected = true;
      job.result = t;
      std::fprintf(stderr, "perfbench: %s seed %llu rejected: %s\n",
                   job.circuit.c_str(),
                   static_cast<unsigned long long>(job.seed),
                   v.at("message").as_string().c_str());
      return;
    } else if (type == "progress" && v.at("status").as_string() == "running") {
      if (job.running < 0.0) job.running = t;
    } else if (type == "result" && v.at("job").as_uint("job") == id) {
      job.result = t;
      job.done = v.at("status").as_string() == "done";
      job.report = report_hash(service::result_report_slice(payload));
      return;
    }
  }
}

core::JobSpec spec_for(const Served& job) {
  core::JobSpec spec;
  spec.name = job.circuit;
  for (const auto& e : afp::netlist::circuit_registry()) {
    if (e.name == job.circuit) spec.netlist = e.make();
  }
  spec.seed = job.seed;
  return spec;
}

}  // namespace

WorkloadResult run_service_mix(const RunOptions& opt) {
  WorkloadResult out;
  const auto& registry = afp::netlist::circuit_registry();
  const int n_circuits = static_cast<int>(registry.size());

  // A relative socket path keeps sun_path short wherever the checkout is.
  std::string dir = opt.work_dir + "/svcXXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed under " + opt.work_dir);
  }
  const std::string sock = dir + "/afpd.sock";

  std::vector<double> setup_times;
  Live live;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (r > 0) live.stop();
    const auto t0 = Clock::now();
    start(live, sock);
    setup_times.push_back(seconds_since(t0));
  }

  // Closed loop: each client runs rounds of all 14 circuits, each round in
  // a seeded random order (a fixed order lets the four clients fall into
  // lock-step patterns that last seconds); a client stops once time is up
  // and it has completed kExactRounds rounds.
  std::vector<std::vector<Served>> per_client(kClients);
  std::vector<std::string> client_errors(kClients);
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          std::vector<int> order(static_cast<std::size_t>(n_circuits));
          for (int k = 0; k < kExactRounds * n_circuits ||
                          seconds_since(t0) < opt.seconds;
               ++k) {
            if (k % n_circuits == 0) {
              std::mt19937_64 rng(derive(opt.seed, 0x0bde7, c, k));
              for (int i = 0; i < n_circuits; ++i) order[i] = i;
              for (int i = n_circuits - 1; i > 0; --i) {
                std::swap(order[i], order[rng() % (i + 1)]);
              }
            }
            Served job;
            job.circuit = registry[static_cast<std::size_t>(
                                       order[k % n_circuits])]
                              .name;
            job.seed = derive(opt.seed, 0x5e7c, c, k) % 2147483647u + 1;
            job.round = k / n_circuits;
            serve_one(live.clients[static_cast<std::size_t>(c)], job, t0);
            per_client[static_cast<std::size_t>(c)].push_back(std::move(job));
          }
        } catch (const std::exception& e) {
          client_errors[static_cast<std::size_t>(c)] = e.what();
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double wall_s = seconds_since(t0);
  const double rss_mb = peak_rss_mb();
  ServiceLayer layer;
  layer.dropped_progress = static_cast<long>(
      live.clients[0].stats().at("dropped_progress").as_uint("dropped_progress"));
  live.stop();
  std::filesystem::remove_all(dir);
  for (int c = 0; c < kClients; ++c) {
    if (!client_errors[static_cast<std::size_t>(c)].empty()) {
      out.correct = false;
      out.errors.push_back("client " + std::to_string(c) + ": " +
                           client_errors[static_cast<std::size_t>(c)]);
    }
  }

  // Jobs in (client, k) order: the replay and the exact metrics use it.
  std::vector<Served> jobs;
  for (auto& list : per_client) {
    for (Served& j : list) jobs.push_back(std::move(j));
  }
  std::vector<JobSample> samples;
  for (const Served& j : jobs) {
    JobSample s;
    s.failed = !j.done;
    s.latency_s = j.result - j.submit;
    samples.push_back(s);
    layer.parked += j.queued ? 1 : 0;
    layer.rejected += j.rejected ? 1 : 0;
    if (j.done) {
      const double running = j.running >= 0.0 ? j.running : j.accepted;
      layer.queue_wait_ms += (running - j.accepted) * 1e3;
      layer.run_ms += (j.result - running) * 1e3;
      layer.overhead_ms += (j.accepted - j.submit) * 1e3;
    }
  }

  // Replay every served job in process (on the pool, one job per chunk)
  // and compare report bytes.
  const auto n = static_cast<std::int64_t>(jobs.size());
  std::vector<Quality> quality(jobs.size());
  std::vector<LayerCounts> counts(jobs.size());
  std::vector<char> mismatch(jobs.size(), 0);
  const auto r0 = Clock::now();
  afp::num::parallel_for(n, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const Served& j = jobs[static_cast<std::size_t>(i)];
      if (!j.done) continue;
      const core::JobReport rep =
          core::JobService::run_job(spec_for(j), 0, j.seed, nullptr, {});
      const std::uint64_t ref = report_hash(core::report_json(
          rep.result, rep.name, rep.optimizer, rep.options, rep.search,
          rep.seed));
      if (ref != j.report) mismatch[static_cast<std::size_t>(i)] = 1;
      quality[static_cast<std::size_t>(i)] = quality_of(rep.result);
    }
  });
  const double untraced_s = seconds_since(r0);

  Tracer tracer;
  double traced_s = 0.0;
  if (opt.trace) {
    const auto r1 = Clock::now();
    afp::num::parallel_for(n, 1, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        const Served& j = jobs[static_cast<std::size_t>(i)];
        if (!j.done) continue;
        const core::JobSpec spec = spec_for(j);
        const core::PipelineConfig& cfg = spec.config;
        std::mt19937_64 rng(j.seed);
        StagedCounters sc;
        const core::PipelineResult res =
            run_staged(cfg, spec.netlist, Agent{}, rng, tracer,
                       static_cast<std::uint64_t>(i) + 1, &sc);
        const auto options =
            afp::metaheur::make_optimizer(cfg.optimizer, cfg.options)
                ->options();
        const std::uint64_t staged = report_hash(core::report_json(
            res, spec.name, res.optimizer, options, cfg.search, j.seed));
        if (staged != j.report) mismatch[static_cast<std::size_t>(i)] = 1;
        add_layer_counts(counts[static_cast<std::size_t>(i)], res, sc);
      }
    });
    traced_s = seconds_since(r1);
  }

  std::vector<Quality> exact;
  LayerCounts exact_rounds;
  long done = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (mismatch[i]) {
      out.correct = false;
      if (out.errors.size() < 8) {
        out.errors.push_back(jobs[i].circuit + " seed " +
                             std::to_string(jobs[i].seed) +
                             ": served report differs from the in-process "
                             "pipeline");
      }
    }
    if (!jobs[i].done) continue;
    ++done;
    if (jobs[i].round < kExactRounds) {
      exact.push_back(quality[i]);
      exact_rounds += counts[i];
    }
  }
  if (done > 0) {
    layer.queue_wait_ms /= static_cast<double>(done);
    layer.run_ms /= static_cast<double>(done);
    layer.overhead_ms /= static_cast<double>(done);
  }

  if (opt.trace) {
    out.attempted = static_cast<long>(jobs.size());
    out.failed = out.attempted - done;
    add_per_layer(out, tracer, done, exact_rounds, 0.0, traced_s, untraced_s);
    add_service_layer(out, layer);
    tracer.write_jsonl(opt.work_dir + "/spans-" + opt.workload + ".jsonl");
  } else {
    add_end_to_end(out, percentile(setup_times, 0.5), wall_s, rss_mb, samples,
                   exact);
  }
  return out;
}

}  // namespace perfbench
