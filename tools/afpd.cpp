// afpd — the floorplanning daemon: serves the afp pipeline over a
// Unix-domain socket (or loopback TCP) speaking the length-prefixed JSON
// protocol in src/service/protocol.hpp.
//
//   afpd --socket /tmp/afpd.sock [options]
//   afpd --port 0                [options]   (loopback TCP; 0 = pick free)
//
// options:
//   --max-sessions N   concurrent client sessions     (env AFPD_MAX_SESSIONS)
//   --max-inflight N   jobs running at once           (env AFPD_MAX_INFLIGHT)
//   --session-quota N  outstanding jobs per session   (env AFPD_SESSION_QUOTA)
//   --max-parked N     total wait-queue capacity      (env AFPD_MAX_PARKED)
//   --strike-limit N   malformed requests before ejection, 0 = off
//                                                     (env AFPD_STRIKE_LIMIT)
//   --write-deadline S stalled-writer disconnect, 0 = off
//                                                     (env AFPD_WRITE_DEADLINE)
//   --idle-timeout S   idle/half-open session reap, 0 = off; keepalive probe
//                      at S/2                         (env AFPD_IDLE_TIMEOUT)
//   --queue-frames N   outbound queue bound per session (progress frames
//                      beyond it are dropped+counted) (env AFPD_QUEUE_FRAMES)
//   --journal PATH     crash-recovery journal          (env AFPD_JOURNAL)
//   --base-seed N      seed base for seed-less submits (default 1)
//   --drain-grace S    drain: finish window before cancelling (default 5)
//   --threads N        numeric thread-pool size
//   --quiet            suppress per-event stderr lines
//
// Flags go through the shared parser (flags.hpp).  Ranges: --port [0,
// 65535]; the admission limits and --queue-frames [1, 2^20];
// --strike-limit [0, 2^20]; every S in seconds [0, 1e9]; --base-seed any
// u64; --threads >= 0 (0 = default).  An AFPD_* variable is the default
// of its flag and passes the same check; the flag wins.  A malformed or
// out-of-range value, from a flag or a variable, is a configuration error:
// afpd exits 2 with the usage text and names the flag or variable —
// silently running with a value the operator did not ask for hides typos
// until the daemon misbehaves under load.
//
// SIGTERM/SIGINT trigger a graceful drain: new sessions and submits are
// rejected, in-flight and queued jobs finish (or are cancelled after the
// grace window), every accepted job still gets its terminal result frame,
// then the process exits 0.
#include <csignal>
#include <cstdio>
#include <string>

#include "numeric/parallel.hpp"
#include "service/server.hpp"

#include "flags.hpp"

namespace {

afp::service::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_drain();
}

int usage(int rc) {
  std::fprintf(rc == 0 ? stdout : stderr,
               "usage: afpd (--socket PATH | --port N) [--max-sessions N] "
               "[--max-inflight N]\n"
               "            [--session-quota N] [--max-parked N] "
               "[--strike-limit N]\n"
               "            [--write-deadline S] [--idle-timeout S] "
               "[--queue-frames N]\n"
               "            [--journal PATH] [--base-seed N] "
               "[--drain-grace S] [--threads N]\n"
               "            [--quiet]\n"
               "ranges: --port [0, 65535]; the admission limits and "
               "--queue-frames [1, 1048576];\n"
               "        --strike-limit [0, 1048576]; seconds [0, 1e9]; "
               "--base-seed any u64;\n"
               "        --threads >= 0 (0 = default)\n");
  return rc;
}

constexpr int kMax = 1 << 20;  ///< upper bound of the counted limits

/// afpd's flags; the AFPD_* variables are defaults for the flags that name
/// one, checked by the same range rule (the flag wins).
const afp::flags::Command kFlags = {
    "",
    {{"socket", true},
     {"port", true},
     {"max-sessions", true, "AFPD_MAX_SESSIONS"},
     {"max-inflight", true, "AFPD_MAX_INFLIGHT"},
     {"session-quota", true, "AFPD_SESSION_QUOTA"},
     {"max-parked", true, "AFPD_MAX_PARKED"},
     {"strike-limit", true, "AFPD_STRIKE_LIMIT"},
     {"write-deadline", true, "AFPD_WRITE_DEADLINE"},
     {"idle-timeout", true, "AFPD_IDLE_TIMEOUT"},
     {"queue-frames", true, "AFPD_QUEUE_FRAMES"},
     {"journal", true, "AFPD_JOURNAL"},
     {"base-seed", true},
     {"drain-grace", true},
     {"threads", true},
     {"quiet", false},
     {"help", false}},
    0};

}  // namespace

int main(int argc, char** argv) {
  // Client disconnects must surface as EPIPE on the write path (handled,
  // session torn down), never as a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  afp::service::ServerConfig cfg;
  int threads = 0;
  try {
    const auto args = afp::flags::Args::parse(argc, argv, 1, kFlags);
    if (args.has("help")) return usage(0);
    // Every default is ServerConfig's own.
    auto& adm = cfg.admission;
    cfg.unix_path = args.get("socket", "");
    cfg.tcp_port = args.get_int("port", cfg.tcp_port, 0, 65535);
    adm.max_sessions = args.get_int("max-sessions", adm.max_sessions, 1, kMax);
    adm.max_inflight = args.get_int("max-inflight", adm.max_inflight, 1, kMax);
    adm.per_session = args.get_int("session-quota", adm.per_session, 1, kMax);
    adm.max_parked = args.get_int("max-parked", adm.max_parked, 1, kMax);
    adm.strike_limit = args.get_int("strike-limit", adm.strike_limit, 0, kMax);
    cfg.write_deadline_s =
        args.get_double("write-deadline", cfg.write_deadline_s, 0.0, 1e9);
    cfg.idle_timeout_s =
        args.get_double("idle-timeout", cfg.idle_timeout_s, 0.0, 1e9);
    cfg.queue_frames = static_cast<std::size_t>(args.get_int(
        "queue-frames", static_cast<int>(cfg.queue_frames), 1, kMax));
    cfg.journal_path = args.get("journal", "");
    cfg.base_seed = args.get_u64("base-seed", cfg.base_seed);
    cfg.drain_grace_s =
        args.get_double("drain-grace", cfg.drain_grace_s, 0.0, 1e9);
    threads = args.get_int("threads", 0, 0);
    cfg.log = !args.has("quiet");
  } catch (const afp::flags::UsageError& e) {
    std::fprintf(stderr, "afpd: %s\n", e.what());
    return usage(2);
  }
  if (cfg.unix_path.empty() && cfg.tcp_port < 0) return usage(2);
  if (threads > 0) afp::num::set_num_threads(threads);

  try {
    afp::service::Server server(std::move(cfg));
    g_server = &server;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    server.start();
    for (const auto& orphan : server.orphans()) {
      std::fprintf(stderr,
                   "afpd: orphaned job %llu ('%s') recovered from journal\n",
                   static_cast<unsigned long long>(orphan.job),
                   orphan.name.c_str());
    }
    // One parseable ready line on stdout, for launchers that wait for it.
    if (server.port() > 0) {
      std::printf("afpd: ready port=%d\n", server.port());
    } else {
      std::printf("afpd: ready\n");
    }
    std::fflush(stdout);
    server.serve();
    g_server = nullptr;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "afpd: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
