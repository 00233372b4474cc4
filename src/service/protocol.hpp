// afpd wire protocol: length-prefixed JSON frames.
//
// Every message is one frame: a 4-byte big-endian payload length followed
// by exactly that many bytes of UTF-8 JSON (one object).  Frames are the
// only unit of exchange in both directions; there is no streaming inside a
// frame and no delimiter scanning — a reader always knows how many bytes it
// is waiting for.  The length prefix is capped (kMaxFrameBytes): a prefix
// above the cap, a zero length or bytes that cannot be a prefix at all
// (junk) are protocol errors that close the connection after a structured
// `error` response where one can still be written.
//
// Requests (client -> server), selected by the "type" member:
//
//   {"type": "submit", "circuit": <registry name>, ...}
//       or "spice": an inline SPICE deck without a title line (parsed by
//       ingest::parse_deck), or "scenario": a generated-workload spec
//       "family:size:seed[:key=val...]" — exactly one of the three.
//       Optional: "name" (job label, defaults to the circuit spec),
//       "seed" (explicit rng seed; bitwise-matches `afp_cli floorplan
//       --seed N`; 0/absent derives a per-job seed), "priority" (higher
//       admits first from the wait queue; default 0), "config" {
//         "optimizer": <registry key>, "options": {<k>: <v-string>, ...},
//         "constrained": <bool>, "search": {"restarts", "base_seed",
//         "iterations", "wall_clock_s", "deadline_s", "quanta",
//         "max_retries"}}
//       — the same member names core/report emits, unknown members
//       rejected (invalid_config), all optional with pipeline defaults.
//   {"type": "cancel", "job": N}     cancel a queued or running job
//   {"type": "deadline", "job": N, "seconds": S}
//       arm (or re-arm) a watchdog deadline on an already-submitted job —
//       S seconds from *now*; the job stops within one poll stride.
//   {"type": "ping"}                 liveness / drain probe
//   {"type": "stats"}                resilience/queue counters snapshot
//   {"type": "orphans"}              jobs a crashed predecessor lost
//                                    (crash-recovery journal replay)
//   {"type": "keepalive_ack", "seq": N}
//       reply to a server keepalive probe; counts as session activity but
//       produces no response frame of its own.
//
// Responses (server -> client):
//
//   {"type": "accepted", "job": N, "queued": <bool>}   submit ack
//   {"type": "ok", "job": N}                           cancel/deadline ack
//   {"type": "pong", "draining": <bool>}               ping reply
//   {"type": "progress", "job": N, "status": <s>, "runtime_s": R,
//    "attempt": A[, "dropped_progress": D]}            streamed per job;
//       D > 0 reports progress frames dropped for this session under
//       write-queue backpressure since the last delivered progress frame
//       (result/error frames are never dropped).
//   {"type": "keepalive", "seq": N}  server-initiated liveness probe; a
//       client must answer (keepalive_ack or any other request) before the
//       idle timeout or the session is reaped as half-open.
//   {"type": "stats", ...}           see stats_json below / README
//   {"type": "orphans", "count": N, "jobs": [...]}     journal replay
//   {"type": "error", "kind": <JobErrorKind>, "message": <m>, "job": N|null}
//   {"type": "result", "job": N, <core::job_report_json body>}
//       terminal report; the nested "report" member is emitted by the same
//       code path as `afp_cli --report-json`, is ALWAYS the final member,
//       and can therefore be sliced out of the frame verbatim (see
//       Client::Result::report_raw) for bitwise comparisons.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include <vector>

#include "core/job_service.hpp"
#include "service/journal.hpp"
#include "service/json.hpp"

namespace afp::service {

/// Hard cap on a frame payload (a submit with an inline SPICE deck is the
/// largest legitimate message; reports stay far below this too).
constexpr std::uint32_t kMaxFrameBytes = 4u << 20;

/// Malformed request at the protocol level (bad JSON, unknown member, bad
/// type, oversized value...).  Mapped to an `error` response with the given
/// kind — kInvalidConfig for everything a client said wrong.
struct ProtocolError : std::runtime_error {
  explicit ProtocolError(const std::string& why,
                         core::JobErrorKind k = core::JobErrorKind::kInvalidConfig)
      : std::runtime_error(why), kind(k) {}
  core::JobErrorKind kind;
};

/// 4-byte big-endian length prefix + payload.  Throws ProtocolError when
/// payload exceeds kMaxFrameBytes (a server must never emit an unreadable
/// frame).
std::string encode_frame(const std::string& payload);

/// Incremental frame decoder: feed() raw bytes as they arrive, then next()
/// until it returns false.  A malformed prefix (zero or above the cap)
/// throws ProtocolError — the connection is beyond recovery because frame
/// boundaries are lost.  Truncation (EOF mid-frame) is the *caller's*
/// signal: `idle()` says whether the buffer holds a partial frame.
class FrameReader {
 public:
  explicit FrameReader(std::uint32_t max_frame = kMaxFrameBytes)
      : max_frame_(max_frame) {}

  void feed(const char* data, std::size_t n);
  /// Extracts the next complete payload; false when more bytes are needed.
  bool next(std::string* payload);
  /// True when no partial frame is buffered (a clean point to disconnect).
  bool idle() const { return buf_.empty(); }

 private:
  std::uint32_t max_frame_;
  std::string buf_;
};

// ------------------------------------------------------------- requests ---

struct SubmitRequest {
  std::string circuit;       ///< registry circuit name ("" when spice given)
  std::string spice;         ///< inline SPICE deck ("" when circuit given)
  /// Generated-workload spec "family:size:seed[:key=val...]" — the third
  /// exclusive workload source next to `circuit` and `spice`.
  std::string scenario;
  std::string name;          ///< job label; defaults to `circuit`
  std::uint64_t seed = 0;    ///< 0 = derive from the daemon's base seed
  int priority = 0;          ///< admission order among queued jobs
  core::PipelineConfig config;
};

struct Request {
  enum class Kind {
    kSubmit,
    kCancel,
    kDeadline,
    kPing,
    kStats,
    kOrphans,
    kKeepaliveAck,
  };
  Kind kind = Kind::kPing;
  SubmitRequest submit;      ///< kSubmit only
  std::uint64_t job = 0;     ///< kCancel / kDeadline
  double seconds = 0.0;      ///< kDeadline
  std::uint64_t seq = 0;     ///< kKeepaliveAck
};

/// Parses and validates one request payload.  Strict: every member is
/// checked by name and type, unknown members are rejected, numeric members
/// must be exactly-representable integers where integers are expected.
/// Throws ProtocolError (or JsonError for malformed JSON).
Request parse_request(const std::string& payload);

// ------------------------------------------------------------ responses ---

/// Resilience counters served by the `stats` request (stats_json).  All
/// totals are monotonic since daemon start; gauges are instantaneous.
struct ServerStats {
  std::uint64_t sessions = 0;          ///< gauge: live sessions
  std::uint64_t inflight = 0;          ///< gauge: admitted jobs running
  std::uint64_t parked = 0;            ///< gauge: jobs waiting for a slot
  std::uint64_t queued_frames = 0;     ///< gauge: frames pending in out-queues
  std::uint64_t queued_bytes = 0;      ///< gauge: bytes pending in out-queues
  std::uint64_t dropped_progress = 0;  ///< total progress frames dropped
  std::uint64_t write_timeouts = 0;    ///< total stalled-writer disconnects
  std::uint64_t idle_timeouts = 0;     ///< total idle/half-open reaps
  std::uint64_t keepalives_sent = 0;   ///< total keepalive probes sent
  std::uint64_t strikes = 0;           ///< total malformed-request strikes
  std::uint64_t strike_ejections = 0;  ///< total sessions ejected on strikes
  std::uint64_t journal_live = 0;      ///< gauge: journaled unfinished jobs
  std::uint64_t journal_orphans = 0;   ///< jobs a crashed predecessor lost
  bool draining = false;
};

std::string accepted_json(std::uint64_t job, bool queued);
std::string ok_json(std::uint64_t job);
std::string pong_json(bool draining);
/// `dropped` > 0 appends a "dropped_progress" member: progress frames this
/// session lost to backpressure since the last delivered one.  Zero keeps
/// the byte layout of every previously-emitted progress frame unchanged.
std::string progress_json(std::uint64_t job, const core::JobProgress& p,
                          std::uint64_t dropped = 0);
std::string keepalive_json(std::uint64_t seq);
std::string stats_json(const ServerStats& s);
/// Journal replay: every job a crashed predecessor accepted but never
/// finished, each as a structured `internal` error object.
std::string orphans_json(const std::vector<JournalEntry>& orphans);
std::string error_json(core::JobErrorKind kind, const std::string& message,
                       std::optional<std::uint64_t> job = std::nullopt);
/// Terminal report frame; splices core::job_report_json so the nested
/// "report" member is byte-identical to the CLI/batch emitters.
std::string result_json(std::uint64_t job, const core::JobReport& report);

/// Byte range of the nested single-run report inside a `result` payload
/// ("null" for unfinished jobs); empty when `payload` is not a result
/// frame.  Exact slicing, no re-serialization — this is the bitwise-parity
/// hook used by afp_loadgen and the tests.
std::string result_report_slice(const std::string& payload);

}  // namespace afp::service
