// afp_loadgen — the one afpd driver: concurrent-client load generator,
// parity checker and chaos harness.
//
//   afp_loadgen --socket PATH [--spawn path/to/afpd] [--clients N]
//               [--seeds 7,8,9] [--circuit ota_small[,driver,...]]
//               [--baseline sa] [--iters N] [--chaos N]
//               [--write-reports DIR] [--bench-json FILE]
//   afp_loadgen --socket PATH --spawn path/to/afpd --kill-test
//
// Every client thread opens its own session and submits one job per seed,
// awaiting each result.  --circuit takes a comma-separated mix: client c
// drives circuit list[c % len], so a 64-client run spreads load across
// heterogeneous job sizes.  Every served `done` report must be
// BYTE-IDENTICAL to an in-process JobService::run_job of the same (circuit,
// seed, baseline, iters) once normalize() has blanked the two
// non-deterministic members — the served pipeline is deterministic, and
// neither session multiplexing nor chaos on a neighbouring session may leak
// into a job — and every submitted job must get its terminal result frame
// (results are never droppable).  One served copy per (circuit, seed) is
// written to --write-reports as report_seed<seed>.json (single circuit) or
// report_<circuit>_seed<seed>.json (mix), formatted exactly like
// `afp_cli --report-json` output so a driver can bitwise-diff the two.
//
// --chaos N adds N adversarial sessions, one seeded actor each in a fixed
// rotation of six kinds: malformed-request floods, raw junk bytes,
// mid-frame stalls, half-open sockets that never answer keepalives, slow
// readers, and random disconnects with jobs in flight.  They may (should!)
// be ejected; only the slow readers must receive all their results.  The
// actor streams derive from a constant, so a rerun replays the same abuse.
//
// --spawn forks/execs afpd on the socket first, with aggressive resilience
// knobs (1 s idle reap, 2 s write deadline, a 16-frame queue bound, strike
// limit 8; 64 sessions with a quota of 64 each) so every defence fires
// under chaos, SIGTERMs it when the load is done and fails on an unclean
// drain — one invocation exercises startup, concurrent load, graceful
// drain and shutdown.
//
// --kill-test exercises crash recovery instead: submit long jobs, SIGKILL
// the spawned daemon mid-run, restart it on the same journal, and require
// every orphaned job to come back from the `orphans` request as a
// structured `internal` error.
//
// --bench-json records throughput (jobs/s) and client-observed p50/p99
// submit->result latency at the configured concurrency.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/job_service.hpp"
#include "core/report.hpp"
#include "netlist/library.hpp"
#include "service/client.hpp"
#include "service/json.hpp"

#include "flags.hpp"

namespace {

using afp::service::Client;
using afp::service::JsonValue;
using Clock = std::chrono::steady_clock;

const afp::flags::Command kFlags = {
    "",
    {{"socket", true}, {"spawn", true}, {"clients", true}, {"seeds", true},
     {"circuit", true}, {"baseline", true}, {"iters", true}, {"chaos", true},
     {"kill-test", false}, {"write-reports", true}, {"bench-json", true},
     {"help", false}},
    0};

/// Base of every chaos actor's SplitMix64 stream.
constexpr std::uint64_t kChaosSeed = 1;

int usage(int rc) {
  std::fprintf(rc == 0 ? stdout : stderr,
               "usage: afp_loadgen --socket PATH [--spawn AFPD] "
               "[--clients N] [--seeds a,b,c]\n"
               "                   [--circuit C[,C...]] [--baseline B] "
               "[--iters N] [--chaos N]\n"
               "                   [--write-reports DIR] [--bench-json F]\n"
               "       afp_loadgen --socket PATH --spawn AFPD --kill-test\n"
               "--clients >= 1, --iters >= 1, --chaos >= 0; seeds are "
               "unsigned integers >= 1\n");
  return rc;
}

struct Options {
  std::string socket_path;
  std::string spawn;
  int clients = 4;
  std::vector<std::uint64_t> seeds;
  std::vector<std::string> circuits;
  std::string baseline;
  int iters = 60;
  int chaos = 0;
  bool kill_test = false;
  std::string write_reports;
  std::string bench_json;
};

Options read_options(const afp::flags::Args& args) {
  using afp::flags::UsageError;
  Options o;
  o.socket_path = args.get("socket", "");
  o.spawn = args.get("spawn", "");
  o.clients = args.get_int("clients", o.clients, 1);
  // Seed 0 would be a seed-less submit, whose server-derived seed no
  // in-process reference can match.
  o.seeds = args.get_u64_list("seeds", {7, 8, 9}, 1);
  for (const std::string& c :
       afp::flags::split(args.get("circuit", "ota_small"), ',')) {
    if (!c.empty()) o.circuits.push_back(c);
  }
  o.baseline = args.get("baseline", "sa");
  o.iters = args.get_int("iters", o.iters, 1);
  o.chaos = args.get_int("chaos", o.chaos, 0);
  o.kill_test = args.has("kill-test");
  o.write_reports = args.get("write-reports", "");
  o.bench_json = args.get("bench-json", "");
  if (o.socket_path.empty()) throw UsageError("--socket is required");
  if (o.seeds.empty() || o.circuits.empty()) {
    throw UsageError("--seeds and --circuit need at least one entry");
  }
  if (o.kill_test && o.spawn.empty()) {
    throw UsageError("--kill-test requires --spawn");
  }
  return o;
}

std::vector<std::string> g_failures;
std::mutex g_mu;

void fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_failures.push_back(what);
}

void sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string config_json(const std::string& baseline, int iterations) {
  return "{\"optimizer\": \"" + baseline + "\", \"search\": {\"iterations\": " +
         std::to_string(iterations) + "}}";
}

// "timings" and "tt_cache" are the report's documented non-deterministic
// members (wall clocks; thread-schedule-dependent hit/miss splits); blank
// both before byte-comparing two runs of the same job.
std::string normalize(std::string report) {
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

// The bytes a served result's "report" member must match: the exact same
// pipeline run in-process (what `afp_cli --report-json` emits too).  Only
// called for served `done` jobs, so `circuit` is a registry name.
std::string reference_report(const std::string& circuit,
                             const std::string& baseline, int iterations,
                             std::uint64_t seed) {
  afp::core::JobSpec spec;
  spec.name = circuit;
  for (const auto& e : afp::netlist::circuit_registry()) {
    if (e.name == circuit) spec.netlist = e.make();
  }
  spec.config.optimizer = baseline;
  spec.config.search.budget.iterations = iterations;
  const afp::core::JobReport rep =
      afp::core::JobService::run_job(spec, 0, seed, nullptr, {});
  return afp::core::report_json(rep.result, rep.name, rep.optimizer,
                                rep.options, rep.search, rep.seed);
}

// ---------------------------------------------------------------- spawning ---

/// Starts afpd on `sock` with the chaos knobs (plus `--journal` when given)
/// and waits until it answers a ping.
pid_t spawn_afpd(const std::string& afpd, const std::string& sock,
                 const std::string& journal) {
  ::unlink(sock.c_str());
  // The chaos knobs, so every resilience path fires within a ~2 s soak:
  // 1 s idle reap (0.5 s keepalive probe), 2 s write deadline, a small
  // queue bound and a low strike limit.
  std::vector<std::string> argv = {
      "afpd", "--socket", sock, "--quiet",
      "--max-sessions", "64", "--session-quota", "64",
      "--idle-timeout", "1", "--write-deadline", "2",
      "--queue-frames", "16", "--strike-limit", "8"};
  if (!journal.empty()) {
    argv.push_back("--journal");
    argv.push_back(journal);
  }
  std::vector<char*> cargv;
  for (auto& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("afp_loadgen: fork");
    std::exit(1);
  }
  if (pid == 0) {
    ::execv(afpd.c_str(), cargv.data());
    std::perror("afp_loadgen: exec afpd");
    _exit(127);
  }
  // Wait for the listener (the daemon binds before serving).
  for (int tries = 0; tries < 200; ++tries) {
    try {
      Client probe = Client::connect_unix(sock);
      probe.ping();
      return pid;
    } catch (const std::exception&) {
      sleep_ms(50);
    }
  }
  std::fprintf(stderr, "afp_loadgen: daemon did not come up\n");
  ::kill(pid, SIGKILL);
  std::exit(1);
}

/// SIGTERMs the daemon and requires a clean drain: exit 0.
void stop_afpd(pid_t pid, const std::string& what) {
  ::kill(pid, SIGTERM);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    fail(what + " did not drain cleanly (status " + std::to_string(status) +
         ")");
  }
}

// ------------------------------------------------------------ chaos actors ---
// Every actor but the slow reader is expected to misbehave and be punished;
// exceptions (EOF, ECONNRESET, ejection) are the success path, so they are
// swallowed.  The daemon's health is asserted by the clients and the final
// control probe.

void actor_malformed_flood(const std::string& sock, std::uint64_t rng) {
  static const char* kPayloads[] = {
      "{\"type\": \"teleport\"}",
      "{\"type\": \"submit\"}",
      "{\"type\": \"cancel\"}",
      "[\"not\", \"an\", \"object\"]",
      "{\"type\": \"submit\", \"circuit\": \"no_such_circuit\"}",
  };
  try {
    Client c = Client::connect_unix(sock);
    const int n = 8 + static_cast<int>(splitmix64(rng) % 24);
    for (int i = 0; i < n; ++i) {
      c.send_frame(kPayloads[splitmix64(rng) % 5]);
    }
    for (int i = 0; i < 2 * n; ++i) (void)c.read_frame();  // until EOF throws
  } catch (const std::exception&) {
  }
}

void actor_junk_bytes(const std::string& sock, std::uint64_t rng) {
  try {
    Client c = Client::connect_unix(sock);
    std::string junk = "GET /chaos HTTP/1.1\r\n\r\n";
    junk.resize(8 + splitmix64(rng) % junk.size());
    c.send_raw(junk);
    for (int i = 0; i < 4; ++i) (void)c.read_frame();
  } catch (const std::exception&) {
  }
}

void actor_midframe_stall(const std::string& sock, std::uint64_t rng) {
  try {
    Client c = Client::connect_unix(sock);
    // A frame claiming 4 KiB, a dribble of bytes, a stall, then either a
    // half-close or a hard drop — never the rest of the frame.
    std::string prefix(4, '\0');
    prefix[2] = '\x10';
    c.send_raw(prefix);
    c.send_raw(std::string(1 + splitmix64(rng) % 32, '{'));
    sleep_ms(50 + splitmix64(rng) % 250);
    if (splitmix64(rng) % 2 == 0) {
      c.shutdown_write();
      for (int i = 0; i < 4; ++i) (void)c.read_frame();
    }
  } catch (const std::exception&) {
  }
}

void actor_half_open(const std::string& sock, std::uint64_t rng) {
  try {
    Client c = Client::connect_unix(sock);
    // Say nothing, answer nothing: the server's keepalive probe goes
    // unacknowledged and the idle reap must disconnect us.
    sleep_ms(1200 + splitmix64(rng) % 600);
    for (int i = 0; i < 4; ++i) (void)c.read_frame();  // keepalive, error, EOF
  } catch (const std::exception&) {
  }
}

// Slow but compliant: stops reading for a while (under the write deadline),
// then catches up.  Progress frames may drop; its RESULTS must all arrive.
void actor_slow_reader(const std::string& sock, std::uint64_t rng,
                       const std::string& config,
                       std::atomic<int>* results_seen) {
  try {
    Client c = Client::connect_unix(sock);
    const auto a = c.submit("ota_small", 1 + splitmix64(rng) % 1000, 0, config);
    const auto b = c.submit("ota_small", 1 + splitmix64(rng) % 1000, 0, config);
    sleep_ms(300 + splitmix64(rng) % 500);  // stall well under the deadline
    (void)c.await_result(a.job);
    results_seen->fetch_add(1);
    (void)c.await_result(b.job);
    results_seen->fetch_add(1);
  } catch (const std::exception& e) {
    fail(std::string("slow reader lost a result: ") + e.what());
  }
}

void actor_random_disconnect(const std::string& sock, std::uint64_t rng) {
  try {
    Client c = Client::connect_unix(sock);
    // A job that would run for minutes, then vanish without reading a
    // single frame: the disconnect must cancel it server-side.
    c.send_frame("{\"type\": \"submit\", \"circuit\": \"ota_small\", "
                 "\"seed\": " + std::to_string(1 + splitmix64(rng) % 1000) +
                 ", \"config\": " + config_json("sa", 1 << 28) + "}");
    sleep_ms(splitmix64(rng) % 200);
  } catch (const std::exception&) {
  }
}

/// Starts chaos actor `a` (kind a % 6) on `threads`; returns whether it is
/// a slow reader, which owes two results.
bool start_actor(int a, const std::string& sock, const std::string& config,
                 std::atomic<int>* slow_results,
                 std::vector<std::thread>* threads) {
  const std::uint64_t rng =
      kChaosSeed ^ (0x517cc1b727220a95ULL * static_cast<std::uint64_t>(a + 1));
  switch (a % 6) {
    case 0:
      threads->emplace_back(actor_malformed_flood, sock, rng);
      return false;
    case 1:
      threads->emplace_back(actor_junk_bytes, sock, rng);
      return false;
    case 2:
      threads->emplace_back(actor_midframe_stall, sock, rng);
      return false;
    case 3:
      threads->emplace_back(actor_half_open, sock, rng);
      return false;
    case 4:
      threads->emplace_back(actor_slow_reader, sock, rng, config,
                            slow_results);
      return true;
    default:
      threads->emplace_back(actor_random_disconnect, sock, rng);
      return false;
  }
}

// --------------------------------------------------------------- kill test ---

void run_kill_test(const Options& o) {
  const std::string journal = o.socket_path + ".journal";
  ::unlink(journal.c_str());
  pid_t pid = spawn_afpd(o.spawn, o.socket_path, journal);
  std::vector<std::uint64_t> jobs;
  try {
    Client client = Client::connect_unix(o.socket_path);
    for (int i = 0; i < 2; ++i) {
      const auto acc =
          client.submit("ota_small", 100 + static_cast<std::uint64_t>(i), 0,
                        config_json("sa", 1 << 28));
      jobs.push_back(acc.job);
    }
  } catch (const std::exception& e) {
    fail(std::string("kill test submit: ") + e.what());
  }
  // The crash: no drain, no journal cleanup, jobs still running.
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);

  pid = spawn_afpd(o.spawn, o.socket_path, journal);
  try {
    Client client = Client::connect_unix(o.socket_path);
    const JsonValue orph = client.orphans();
    const auto& arr = orph.at("jobs").as_array();
    if (orph.at("count").as_uint("count") != jobs.size() ||
        arr.size() != jobs.size()) {
      fail("expected " + std::to_string(jobs.size()) + " orphans, got " +
           std::to_string(arr.size()));
    }
    for (const std::uint64_t job : jobs) {
      bool found = false;
      for (const auto& j : arr) {
        if (j.at("job").as_uint("job") == job &&
            j.at("error").at("kind").as_string() == "internal") {
          found = true;
        }
      }
      if (!found) fail("job " + std::to_string(job) + " missing from orphans");
    }
    // The restarted daemon still serves jobs, and the replayed journal was
    // reset — a finished job leaves no live entries behind.
    const auto acc = client.submit("ota_small", 9, 0, config_json("sa", 40));
    if (client.await_result(acc.job).status != "done") {
      fail("post-restart job failed");
    }
    // The journal entry is removed just AFTER the result frame is sent;
    // give the completer a moment before requiring an empty journal.
    bool journal_empty = false;
    for (int tries = 0; tries < 100 && !journal_empty; ++tries) {
      const JsonValue st = client.stats();
      journal_empty = st.at("journal_live").as_uint("journal_live") == 0;
      if (!journal_empty) sleep_ms(10);
    }
    if (!journal_empty) fail("journal_live != 0 after run");
  } catch (const std::exception& e) {
    fail(std::string("kill test: ") + e.what());
  }
  stop_afpd(pid, "restarted daemon");
  if (g_failures.empty()) {
    std::printf("afp_loadgen: kill test PASS: %zu orphaned jobs surfaced as "
                "structured internal errors after restart\n",
                jobs.size());
  }
}

// ---------------------------------------------------------------- load run ---

struct JobOutcome {
  int client = 0;
  std::string circuit;
  std::uint64_t seed = 0;
  double latency_ms = 0.0;
  std::string status;
  std::string report;  ///< raw report bytes, sliced from the result frame
};

/// The daemon's resilience counters, and a check that it still serves.
std::string control_probe(const std::string& sock) {
  try {
    Client control = Client::connect_unix(sock);
    const JsonValue st = control.stats();
    std::string line;
    for (const char* key : {"dropped_progress", "write_timeouts",
                            "idle_timeouts", "keepalives_sent", "strikes",
                            "strike_ejections"}) {
      line += std::string(line.empty() ? "" : " ") + key + "=" +
              std::to_string(st.at(key).as_uint(key));
    }
    if (control.ping()) fail("daemon reports draining during the run");
    return line;
  } catch (const std::exception& e) {
    fail(std::string("daemon unreachable after the run: ") + e.what());
    return "(unavailable)";
  }
}

void write_bench_json(const Options& o, std::size_t jobs, double wall_s,
                      double jobs_per_s, double p50, double p99) {
  std::string mix;
  for (const auto& c : o.circuits) mix += (mix.empty() ? "" : ",") + c;
  std::ofstream os(o.bench_json);
  os << "{\n"
     << "  \"bench\": \"service\",\n"
     << "  \"clients\": " << o.clients << ",\n"
     << "  \"jobs\": " << jobs << ",\n"
     << "  \"circuit\": \"" << mix << "\",\n"
     << "  \"baseline\": \"" << o.baseline << "\",\n"
     << "  \"iters\": " << o.iters << ",\n"
     << "  \"wall_s\": " << wall_s << ",\n"
     << "  \"jobs_per_s\": " << jobs_per_s << ",\n"
     << "  \"p50_ms\": " << p50 << ",\n"
     << "  \"p99_ms\": " << p99 << "\n"
     << "}\n";
  if (!os) fail("cannot write " + o.bench_json);
}

void run_load(const Options& o) {
  const pid_t daemon_pid =
      o.spawn.empty() ? -1 : spawn_afpd(o.spawn, o.socket_path, "");
  const std::string config = config_json(o.baseline, o.iters);
  std::vector<JobOutcome> outcomes;
  std::mutex out_mu;

  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < o.clients; ++c) {
    clients.emplace_back([&, c] {
      // The circuit mix is assigned round-robin by client index, so a rerun
      // with the same flags reproduces the exact same job set.
      const std::string& circuit =
          o.circuits[static_cast<std::size_t>(c) % o.circuits.size()];
      try {
        Client client = Client::connect_unix(o.socket_path);
        for (const std::uint64_t seed : o.seeds) {
          JobOutcome out;
          out.client = c;
          out.circuit = circuit;
          out.seed = seed;
          const auto j0 = Clock::now();
          const auto acc = client.submit(circuit, seed, 0, config);
          const auto res = client.await_result(acc.job);
          out.latency_ms =
              std::chrono::duration<double, std::milli>(Clock::now() - j0)
                  .count();
          out.status = res.status;
          out.report = res.report_raw;
          if (res.status != "done") {
            fail("client " + std::to_string(c) + " seed " +
                 std::to_string(seed) + ": status " + res.status + " (" +
                 res.error_kind + ": " + res.error_message + ")");
          }
          std::lock_guard<std::mutex> lock(out_mu);
          outcomes.push_back(std::move(out));
        }
      } catch (const std::exception& e) {
        fail("client " + std::to_string(c) + ": " + e.what());
      }
    });
  }
  std::atomic<int> slow_results{0};
  int slow_readers = 0;
  std::vector<std::thread> actors;
  for (int a = 0; a < o.chaos; ++a) {
    if (start_actor(a, o.socket_path, config, &slow_results, &actors)) {
      ++slow_readers;
    }
  }
  for (auto& t : clients) t.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  for (auto& t : actors) t.join();

  const std::size_t expected = static_cast<std::size_t>(o.clients) *
                               o.seeds.size();
  if (outcomes.size() != expected) {
    fail("dropped result frames: clients received " +
         std::to_string(outcomes.size()) + "/" + std::to_string(expected));
  }
  if (slow_results.load() != 2 * slow_readers) {
    fail("dropped result frames: slow readers received " +
         std::to_string(slow_results.load()) + "/" +
         std::to_string(2 * slow_readers));
  }

  // Parity: every served report against the in-process reference of its
  // (circuit, seed); the first served copy per key is kept for
  // --write-reports.
  std::map<std::pair<std::string, std::uint64_t>, std::string> reference;
  std::map<std::pair<std::string, std::uint64_t>, std::string> served;
  for (const JobOutcome& out : outcomes) {
    if (out.status != "done") continue;
    const auto key = std::make_pair(out.circuit, out.seed);
    if (served.emplace(key, out.report).second) {
      reference[key] = normalize(
          reference_report(out.circuit, o.baseline, o.iters, out.seed));
    }
    if (normalize(out.report) != reference[key]) {
      fail(out.circuit + " seed " + std::to_string(out.seed) + ": client " +
           std::to_string(out.client) +
           " served bytes differ from the in-process reference");
    }
  }
  if (!o.write_reports.empty()) {
    for (const auto& [key, report] : served) {
      // Single-circuit runs keep the name the smoke drivers diff.
      const std::string path =
          o.write_reports + "/report_" +
          (o.circuits.size() > 1 ? key.first + "_seed" : "seed") +
          std::to_string(key.second) + ".json";
      std::ofstream os(path);
      os << report << "\n";  // afp_cli's write_file appends one newline too
      if (!os) fail("cannot write " + path);
    }
  }

  std::vector<double> latencies;
  for (const JobOutcome& out : outcomes) latencies.push_back(out.latency_ms);
  std::sort(latencies.begin(), latencies.end());
  auto pct = [&](double p) {
    if (latencies.empty()) return 0.0;
    const auto at = static_cast<std::size_t>(
        p * static_cast<double>(latencies.size() - 1));
    return latencies[at];
  };
  const double jobs_per_s =
      wall_s > 0.0 ? static_cast<double>(latencies.size()) / wall_s : 0.0;
  std::printf(
      "loadgen: %d clients x %zu jobs | %d chaos actors | %.2fs wall | "
      "%.1f jobs/s | p50 %.1f ms | p99 %.1f ms\n",
      o.clients, o.seeds.size(), o.chaos, wall_s, jobs_per_s, pct(0.5),
      pct(0.99));
  if (!o.bench_json.empty()) {
    write_bench_json(o, latencies.size(), wall_s, jobs_per_s, pct(0.5),
                     pct(0.99));
  }
  std::printf("afpd stats: %s\n", control_probe(o.socket_path).c_str());

  // Graceful shutdown of an owned daemon: SIGTERM must drain and exit 0.
  if (daemon_pid > 0) stop_afpd(daemon_pid, "daemon");
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Options opts;
  try {
    const auto args = afp::flags::Args::parse(argc, argv, 1, kFlags);
    if (args.has("help")) return usage(0);
    opts = read_options(args);
  } catch (const afp::flags::UsageError& e) {
    std::fprintf(stderr, "afp_loadgen: %s\n", e.what());
    return usage(2);
  }
  if (opts.kill_test) {
    run_kill_test(opts);
  } else {
    run_load(opts);
  }
  for (const auto& f : g_failures) {
    std::fprintf(stderr, "afp_loadgen: FAIL: %s\n", f.c_str());
  }
  return g_failures.empty() ? 0 : 1;
}
