#include "service/protocol.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>

#include "core/report.hpp"

namespace afp::service {

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string encode_frame(const std::string& payload) {
  if (payload.empty() || payload.size() > kMaxFrameBytes) {
    throw ProtocolError("frame payload size " + std::to_string(payload.size()) +
                            " outside (0, " + std::to_string(kMaxFrameBytes) +
                            "]",
                        core::JobErrorKind::kInternal);
  }
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.reserve(4 + payload.size());
  out.push_back(static_cast<char>((n >> 24) & 0xFF));
  out.push_back(static_cast<char>((n >> 16) & 0xFF));
  out.push_back(static_cast<char>((n >> 8) & 0xFF));
  out.push_back(static_cast<char>(n & 0xFF));
  out += payload;
  return out;
}

void FrameReader::feed(const char* data, std::size_t n) {
  buf_.append(data, n);
}

bool FrameReader::next(std::string* payload) {
  if (buf_.size() < 4) return false;
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(buf_[i]));
  };
  const std::uint32_t n = (b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3);
  // A bad prefix is unrecoverable: once the length cannot be trusted, every
  // subsequent byte boundary is garbage too, so the session must close.
  // Junk input (an HTTP request, say) almost always lands here — 'GET '
  // decodes as a ~1.2 GB length.
  if (n == 0) {
    throw ProtocolError("zero-length frame");
  }
  if (n > max_frame_) {
    throw ProtocolError("frame length " + std::to_string(n) +
                        " exceeds the " + std::to_string(max_frame_) +
                        "-byte cap");
  }
  if (buf_.size() < 4u + n) return false;
  payload->assign(buf_, 4, n);
  buf_.erase(0, 4u + n);
  return true;
}

// -------------------------------------------------------------- requests ---

namespace {

[[noreturn]] void bad(const std::string& why) { throw ProtocolError(why); }

/// Rejects members outside `allowed` (a null-terminated array of names) so
/// a typoed key is an invalid_config error, never silently ignored.
void check_members(const JsonValue& obj, const char* what,
                   std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : obj.members()) {
    bool known = false;
    for (const char* a : allowed) known = known || key == a;
    if (!known) bad(std::string("unknown ") + what + " member \"" + key + "\"");
  }
}

int as_bounded_int(const JsonValue& v, const std::string& what, long long lo,
                   long long hi) {
  const long long x = v.as_int(what);
  if (x < lo || x > hi) {
    bad(what + " must be in [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "]");
  }
  return static_cast<int>(x);
}

/// Reads the search members (narrowed to their C++ types); the ranges and
/// cross-field rules are core::validate_search's, shared with afp_cli.
void parse_search(const JsonValue& v, core::SearchConfig* search) {
  check_members(v, "search", {"restarts", "base_seed", "iterations",
                              "wall_clock_s", "deadline_s", "quanta",
                              "max_retries"});
  auto as_int = [](const JsonValue& m, const std::string& what) {
    return as_bounded_int(m, what, std::numeric_limits<int>::min(),
                          std::numeric_limits<int>::max());
  };
  if (const JsonValue* m = v.find("restarts")) {
    search->restarts = as_int(*m, "search.restarts");
  }
  if (const JsonValue* m = v.find("base_seed")) {
    search->base_seed = m->as_uint("search.base_seed");
  }
  if (const JsonValue* m = v.find("iterations")) {
    search->budget.iterations = as_int(*m, "search.iterations");
  }
  if (const JsonValue* m = v.find("wall_clock_s")) {
    search->budget.wall_clock_s = m->as_number();
  }
  if (const JsonValue* m = v.find("deadline_s")) {
    search->budget.deadline_s = m->as_number();
  }
  if (const JsonValue* m = v.find("quanta")) {
    search->budget.quanta = as_int(*m, "search.quanta");
  }
  if (const JsonValue* m = v.find("max_retries")) {
    search->retry.max_retries = as_int(*m, "search.max_retries");
  }
  try {
    core::validate_search(*search);
  } catch (const std::invalid_argument& e) {
    bad(e.what());
  }
}

void parse_config(const JsonValue& v, core::PipelineConfig* config) {
  check_members(v, "config", {"optimizer", "options", "constrained", "search"});
  if (const JsonValue* m = v.find("optimizer")) {
    config->optimizer = m->as_string();
  }
  if (const JsonValue* m = v.find("options")) {
    for (const auto& [key, value] : m->members()) {
      if (!value.is_string()) {
        bad("config.options." + key + " must be a string (option values are "
            "parsed by the optimizer's own strict parser)");
      }
      config->options[key] = value.as_string();
    }
  }
  if (const JsonValue* m = v.find("constrained")) {
    config->constrained = m->as_bool();
  }
  if (const JsonValue* m = v.find("search")) {
    parse_search(*m, &config->search);
  }
}

Request parse_submit(const JsonValue& v) {
  check_members(v, "submit", {"type", "circuit", "spice", "scenario", "name",
                              "seed", "priority", "config"});
  Request req;
  req.kind = Request::Kind::kSubmit;
  const JsonValue* circuit = v.find("circuit");
  const JsonValue* spice = v.find("spice");
  const JsonValue* scenario = v.find("scenario");
  const int sources = static_cast<int>(circuit != nullptr) +
                      static_cast<int>(spice != nullptr) +
                      static_cast<int>(scenario != nullptr);
  if (sources != 1) {
    bad("submit needs exactly one of \"circuit\", \"spice\" or \"scenario\"");
  }
  if (circuit) {
    req.submit.circuit = circuit->as_string();
    if (req.submit.circuit.empty()) bad("submit.circuit must be non-empty");
  } else if (spice) {
    req.submit.spice = spice->as_string();
    if (req.submit.spice.empty()) bad("submit.spice must be non-empty");
  } else {
    req.submit.scenario = scenario->as_string();
    if (req.submit.scenario.empty()) bad("submit.scenario must be non-empty");
  }
  req.submit.name = !req.submit.circuit.empty() ? req.submit.circuit
                    : !req.submit.scenario.empty() ? req.submit.scenario
                                                   : "spice";
  if (const JsonValue* m = v.find("name")) req.submit.name = m->as_string();
  if (const JsonValue* m = v.find("seed")) req.submit.seed = m->as_uint("seed");
  if (const JsonValue* m = v.find("priority")) {
    req.submit.priority = as_bounded_int(*m, "priority", -100, 100);
  }
  if (const JsonValue* m = v.find("config")) {
    parse_config(*m, &req.submit.config);
  }
  return req;
}

}  // namespace

Request parse_request(const std::string& payload) {
  const JsonValue v = json_parse(payload);
  if (!v.is_object()) bad("a request must be a JSON object");
  const std::string& type = v.at("type").as_string();
  if (type == "submit") return parse_submit(v);
  if (type == "cancel" || type == "deadline") {
    Request req;
    if (type == "cancel") {
      check_members(v, "cancel", {"type", "job"});
      req.kind = Request::Kind::kCancel;
    } else {
      check_members(v, "deadline", {"type", "job", "seconds"});
      req.kind = Request::Kind::kDeadline;
      req.seconds = v.at("seconds").as_number();
      if (!(req.seconds > 0.0) || req.seconds > 1e9) {
        bad("deadline.seconds must be in (0, 1e9]");
      }
    }
    req.job = v.at("job").as_uint("job");
    return req;
  }
  if (type == "ping") {
    check_members(v, "ping", {"type"});
    Request req;
    req.kind = Request::Kind::kPing;
    return req;
  }
  if (type == "stats") {
    check_members(v, "stats", {"type"});
    Request req;
    req.kind = Request::Kind::kStats;
    return req;
  }
  if (type == "orphans") {
    check_members(v, "orphans", {"type"});
    Request req;
    req.kind = Request::Kind::kOrphans;
    return req;
  }
  if (type == "keepalive_ack") {
    check_members(v, "keepalive_ack", {"type", "seq"});
    Request req;
    req.kind = Request::Kind::kKeepaliveAck;
    req.seq = v.at("seq").as_uint("seq");
    return req;
  }
  bad("unknown request type \"" + type + "\"");
}

// ------------------------------------------------------------- responses ---

std::string accepted_json(std::uint64_t job, bool queued) {
  std::ostringstream os;
  os << "{\"type\": \"accepted\", \"job\": " << job << ", \"queued\": "
     << (queued ? "true" : "false") << "}";
  return os.str();
}

std::string ok_json(std::uint64_t job) {
  std::ostringstream os;
  os << "{\"type\": \"ok\", \"job\": " << job << "}";
  return os.str();
}

std::string pong_json(bool draining) {
  std::ostringstream os;
  os << "{\"type\": \"pong\", \"draining\": " << (draining ? "true" : "false")
     << "}";
  return os.str();
}

std::string progress_json(std::uint64_t job, const core::JobProgress& p,
                          std::uint64_t dropped) {
  std::ostringstream os;
  os << "{\"type\": \"progress\", \"job\": " << job << ", \"status\": \""
     << core::to_string(p.status) << "\", \"runtime_s\": " << num(p.runtime_s)
     << ", \"attempt\": " << p.attempt;
  if (dropped > 0) os << ", \"dropped_progress\": " << dropped;
  os << "}";
  return os.str();
}

std::string keepalive_json(std::uint64_t seq) {
  std::ostringstream os;
  os << "{\"type\": \"keepalive\", \"seq\": " << seq << "}";
  return os.str();
}

std::string stats_json(const ServerStats& s) {
  std::ostringstream os;
  os << "{\"type\": \"stats\", \"sessions\": " << s.sessions
     << ", \"inflight\": " << s.inflight << ", \"parked\": " << s.parked
     << ", \"queued_frames\": " << s.queued_frames
     << ", \"queued_bytes\": " << s.queued_bytes
     << ", \"dropped_progress\": " << s.dropped_progress
     << ", \"write_timeouts\": " << s.write_timeouts
     << ", \"idle_timeouts\": " << s.idle_timeouts
     << ", \"keepalives_sent\": " << s.keepalives_sent
     << ", \"strikes\": " << s.strikes
     << ", \"strike_ejections\": " << s.strike_ejections
     << ", \"journal_live\": " << s.journal_live
     << ", \"journal_orphans\": " << s.journal_orphans
     << ", \"draining\": " << (s.draining ? "true" : "false") << "}";
  return os.str();
}

std::string orphans_json(const std::vector<JournalEntry>& orphans) {
  std::ostringstream os;
  os << "{\"type\": \"orphans\", \"count\": " << orphans.size()
     << ", \"jobs\": [";
  bool first = true;
  for (const JournalEntry& e : orphans) {
    if (!first) os << ", ";
    first = false;
    os << "{\"job\": " << e.job << ", \"name\": \""
       << core::json_escape(e.name) << "\", \"seed\": " << e.seed
       << ", \"identity\": " << e.identity << ", \"error\": {\"kind\": \""
       << core::to_string(core::JobErrorKind::kInternal)
       << "\", \"message\": \"job lost in a daemon crash before completion; "
          "resubmit with this seed to reproduce\"}}";
  }
  os << "]}";
  return os.str();
}

std::string error_json(core::JobErrorKind kind, const std::string& message,
                       std::optional<std::uint64_t> job) {
  std::ostringstream os;
  os << "{\"type\": \"error\", \"kind\": \"" << core::to_string(kind)
     << "\", \"message\": \"" << core::json_escape(message) << "\", \"job\": ";
  if (job) {
    os << *job;
  } else {
    os << "null";
  }
  os << "}";
  return os.str();
}

std::string result_json(std::uint64_t job, const core::JobReport& report) {
  // Splice the shared per-job emitter: everything after its opening brace
  // (name/status/seed/.../report) keeps the exact bytes batch_report_json
  // and therefore `afp_cli --report-json` would produce.
  const std::string body = core::job_report_json(report);
  std::ostringstream os;
  os << "{\"type\": \"result\", \"job\": " << job << ", " << body.substr(1);
  return os.str();
}

std::string result_report_slice(const std::string& payload) {
  // "report" is by construction the final member of a result frame, and the
  // marker below cannot occur inside any JSON string (json_escape always
  // escapes the quote), so the slice is exact.
  static const char kMarker[] = ", \"report\": ";
  if (payload.rfind("{\"type\": \"result\"", 0) != 0) return {};
  const std::size_t at = payload.find(kMarker);
  if (at == std::string::npos || payload.empty() || payload.back() != '}') {
    return {};
  }
  return payload.substr(at + sizeof(kMarker) - 1,
                        payload.size() - (at + sizeof(kMarker) - 1) - 1);
}

}  // namespace afp::service
