#include "obs/admin.hpp"

#include <sstream>

#include "http/parser.hpp"
#include "obs/consistency.hpp"
#include "obs/export.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "util/serial.hpp"

namespace globe::obs {

using http::HttpRequest;
using http::HttpResponse;
using util::Bytes;
using util::BytesView;
using util::Result;
using util::Status;

namespace {

/// Upper bound on the min_ms filter: ~11.5 days, far beyond any trace, and
/// small enough that millis() cannot overflow.
constexpr std::uint64_t kMaxMinMs = 1'000'000'000;

/// Strict sanitizer for the /tracez query string.  Accepts exactly "" or
/// "min_ms=<1..10 digits>"; everything else — stray parameters, empty
/// value, signs, whitespace, overlong numbers — is INVALID_ARGUMENT.  The
/// input came off the wire; after this gate only a bounded integer
/// survives, so nothing attacker-controlled can reach a response body.
GLOBE_SANITIZER Result<std::uint64_t> parse_tracez_query(
    GLOBE_UNTRUSTED const std::string& query) {
  if (query.empty()) return std::uint64_t{0};
  constexpr std::string_view kKey = "min_ms=";
  if (query.size() <= kKey.size() || query.compare(0, kKey.size(), kKey) != 0) {
    return Status(util::ErrorCode::kInvalidArgument, "unknown query parameter");
  }
  std::string_view digits = std::string_view(query).substr(kKey.size());
  if (digits.size() > 10) {
    return Status(util::ErrorCode::kInvalidArgument, "min_ms out of range");
  }
  std::uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') {
      return Status(util::ErrorCode::kInvalidArgument, "min_ms not a number");
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (value > kMaxMinMs) {
    return Status(util::ErrorCode::kInvalidArgument, "min_ms out of range");
  }
  return value;
}

/// Parsed /profilez query: table by default, folded stacks on request.
struct ProfilezQuery {
  bool folded = false;
  std::uint64_t top_n = 20;
};

/// Upper bound on the n= row filter: far more stacks than the registry can
/// hold, and small enough that rendering stays cheap.
constexpr std::uint64_t kMaxProfileRows = 10'000;

/// Strict sanitizer for the /profilez query string, same discipline as
/// /tracez: accepts exactly "", "fmt=folded", "n=<1..5 digits>" or
/// "fmt=folded&n=<1..5 digits>"; anything else — stray parameters, other
/// fmt words, signs, whitespace — is INVALID_ARGUMENT.  After this gate
/// only a flag and a bounded integer survive, so nothing attacker-chosen
/// can reach a response body.
GLOBE_SANITIZER Result<ProfilezQuery> parse_profilez_query(
    GLOBE_UNTRUSTED const std::string& query) {
  ProfilezQuery out;
  std::string_view rest = query;
  constexpr std::string_view kFmt = "fmt=folded";
  if (rest.substr(0, kFmt.size()) == kFmt) {
    out.folded = true;
    rest.remove_prefix(kFmt.size());
    if (!rest.empty()) {
      if (rest[0] != '&') {
        return Status(util::ErrorCode::kInvalidArgument, "unknown fmt");
      }
      rest.remove_prefix(1);
      if (rest.empty()) {
        return Status(util::ErrorCode::kInvalidArgument, "trailing separator");
      }
    }
  }
  if (rest.empty()) return out;
  constexpr std::string_view kN = "n=";
  if (rest.size() <= kN.size() || rest.substr(0, kN.size()) != kN) {
    return Status(util::ErrorCode::kInvalidArgument, "unknown query parameter");
  }
  std::string_view digits = rest.substr(kN.size());
  if (digits.size() > 5) {  // kMaxProfileRows = 10000 needs five digits
    return Status(util::ErrorCode::kInvalidArgument, "n out of range");
  }
  std::uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') {
      return Status(util::ErrorCode::kInvalidArgument, "n not a number");
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (value == 0 || value > kMaxProfileRows) {
    return Status(util::ErrorCode::kInvalidArgument, "n out of range");
  }
  out.top_n = value;
  return out;
}

/// Strict sanitizer for the /replicaz query string.  Accepts exactly "" or
/// "state=<one of the six ReplicaConsistency names>"; everything else is
/// INVALID_ARGUMENT.  After this gate only a vetted constant survives —
/// the filter string in the response is ours, never the peer's.
GLOBE_SANITIZER Result<std::string> parse_replicaz_query(
    GLOBE_UNTRUSTED const std::string& query) {
  if (query.empty()) return std::string();
  constexpr std::string_view kKey = "state=";
  if (query.size() <= kKey.size() || query.compare(0, kKey.size(), kKey) != 0) {
    return Status(util::ErrorCode::kInvalidArgument, "unknown query parameter");
  }
  std::string_view want = std::string_view(query).substr(kKey.size());
  static constexpr std::string_view kStates[] = {
      "fresh", "stale", "diverged", "expired", "missing", "unreachable"};
  for (std::string_view state : kStates) {
    if (want == state) return std::string(state);
  }
  return Status(util::ErrorCode::kInvalidArgument, "unknown state filter");
}

/// Static error bodies only: a 4xx must not echo what the peer sent.
HttpResponse error_response(int status, std::string_view body) {
  return HttpResponse::make(status, http::reason_for_status(status),
                            util::to_bytes(body), "text/plain");
}

void trace_to_json(std::ostringstream& os, const StitchedTrace& trace) {
  os << "{\"trace_id\":\"" << trace.trace_id()
     << "\",\"duration_ms\":" << util::to_millis(trace.duration())
     << ",\"complete\":" << (trace.complete ? "true" : "false")
     << ",\"fragments\":" << trace.fragments
     << ",\"root\":" << to_json(trace.root) << '}';
}

}  // namespace

Status reachability_probe(net::ServerContext& ctx, const net::Endpoint& ep) {
  Result<Bytes> reply = ctx.transport().call(ep, Bytes(4, 0));
  if (!reply.is_ok() && reply.code() == util::ErrorCode::kUnavailable) {
    return Status(util::ErrorCode::kUnavailable,
                  ep.to_string() + " unreachable");
  }
  return Status::ok();
}

AdminHttpServer::AdminHttpServer(AdminConfig config)
    : config_(std::move(config)) {
  if (config_.registry == nullptr) config_.registry = &global_registry();
  if (config_.collector == nullptr) config_.collector = &global_trace_collector();
  if (config_.profile == nullptr) config_.profile = &global_profile_registry();
}

void AdminHttpServer::add_health_check(std::string name, HealthProbe probe) {
  util::LockGuard lock(mutex_);
  checks_.emplace_back(std::move(name), std::move(probe));
}

HttpResponse AdminHttpServer::serve_metrics() {
  // Fold the cost profile into the registry first, so every scrape — local
  // /metrics and the telemetry plane that feeds /federate — sees current
  // profile.* counters.
  config_.profile->publish_to(*config_.registry);
  HttpResponse resp = HttpResponse::make(
      200, "OK", util::to_bytes(to_text(config_.registry->snapshot())),
      "text/plain");
  return resp;
}

HttpResponse AdminHttpServer::serve_profilez(const std::string& query) {
  Result<ProfilezQuery> parsed = parse_profilez_query(query);
  if (!parsed.is_ok()) {
    return error_response(400,
                          "400 bad query: expected fmt=folded and/or n=<rows>\n");
  }
  // Re-clamp the row count through the length guard: top_n sizes the table
  // buffer, and it arrived in an untrusted query string.
  std::uint32_t top_n = util::checked_count(
      static_cast<std::uint32_t>(parsed->top_n),
      static_cast<std::uint32_t>(kMaxProfileRows));
  ProfileSnapshot snap = config_.profile->snapshot();
  std::string body = parsed->folded
                         ? to_folded(snap)
                         : to_table(snap, static_cast<std::size_t>(top_n));
  return HttpResponse::make(200, "OK", util::to_bytes(body), "text/plain");
}

HttpResponse AdminHttpServer::serve_healthz(net::ServerContext& ctx) {
  // Snapshot the check list, then probe WITHOUT the lock: probes make
  // nested transport calls and must not serialize against registration.
  std::vector<std::pair<std::string, HealthProbe>> checks;
  {
    util::LockGuard lock(mutex_);
    checks = checks_;
  }
  bool all_ok = true;
  std::ostringstream os;
  os << "{\"service\":\"" << json_escape(config_.service) << "\",\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    Status s = checks[i].second(ctx);
    if (!s.is_ok()) all_ok = false;
    if (i > 0) os << ',';
    os << "{\"name\":\"" << json_escape(checks[i].first)
       << "\",\"ok\":" << (s.is_ok() ? "true" : "false");
    if (!s.is_ok()) os << ",\"error\":\"" << json_escape(s.to_string()) << '"';
    os << '}';
  }
  os << "],\"status\":\"" << (all_ok ? "ok" : "degraded") << "\"}";
  int status = all_ok ? 200 : 503;
  if (!all_ok) {
    emit_event(EventLevel::kWarn, "admin", "healthz",
               config_.service + " degraded");
  }
  return HttpResponse::make(status, http::reason_for_status(status),
                            util::to_bytes(os.str()), "application/json");
}

HttpResponse AdminHttpServer::serve_tracez(const std::string& query) {
  Result<std::uint64_t> min_ms = parse_tracez_query(query);
  if (!min_ms.is_ok()) {
    return error_response(400, "400 bad query: expected min_ms=<millis>\n");
  }
  std::vector<StitchedTrace> traces =
      config_.collector->recent(64, util::millis(*min_ms));
  std::ostringstream os;
  os << "{\"min_ms\":" << *min_ms
     << ",\"seen\":" << config_.collector->traces_seen()
     << ",\"kept\":" << config_.collector->traces_kept() << ",\"traces\":[";
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (i > 0) os << ',';
    trace_to_json(os, traces[i]);
  }
  os << "]}";
  return HttpResponse::make(200, "OK", util::to_bytes(os.str()),
                            "application/json");
}

HttpResponse AdminHttpServer::serve_federate() {
  // Node health first, as exposition comments — a stale node has NO series
  // below (its last snapshot is excluded from the merge), so the header is
  // the only place its absence is explained.
  std::ostringstream os;
  for (const NodeStatus& node : config_.aggregator->nodes()) {
    os << "# node " << node.node << " role=" << node.role << ' '
       << (node.stale ? "stale" : "fresh") << " ok=" << node.scrapes_ok
       << " failed=" << node.scrapes_failed;
    if (!node.last_error.empty()) {
      // Scrape errors carry transport/protocol detail, not peer-chosen
      // bytes past the sanitizer; still keep them to one comment line.
      std::string error = node.last_error;
      for (char& c : error) {
        if (c == '\n' || c == '\r') c = ' ';
      }
      os << " error=\"" << error << '"';
    }
    os << '\n';
  }
  os << to_text(config_.aggregator->merged());
  return HttpResponse::make(200, "OK", util::to_bytes(os.str()), "text/plain");
}

HttpResponse AdminHttpServer::serve_alertz(net::ServerContext& ctx) {
  config_.slo->evaluate(ctx.now());
  return HttpResponse::make(200, "OK", util::to_bytes(config_.slo->to_json()),
                            "application/json");
}

HttpResponse AdminHttpServer::serve_replicaz(const std::string& query) {
  Result<std::string> filter = parse_replicaz_query(query);
  if (!filter.is_ok()) {
    return error_response(
        400,
        "400 bad query: expected "
        "state=<fresh|stale|diverged|expired|missing|unreachable>\n");
  }
  const TelemetryAggregator& fleet = *config_.aggregator;
  std::vector<ReplicaRow> rows = fleet.rows();
  std::ostringstream os;
  os << "# replicaz rounds=" << fleet.rounds()
     << " replicas=" << fleet.replica_count() << " converged="
     << (fleet.converged() ? "true" : "false") << '\n';
  os << "# replica oid epoch master lag staleness_ms expiry_s state\n";
  for (const ReplicaRow& row : rows) {
    const char* state = replica_consistency_name(row.state);
    if (!filter->empty() && *filter != state) continue;
    std::uint64_t lag =
        row.master_epoch > row.epoch ? row.master_epoch - row.epoch : 0;
    os << row.replica << ' ' << row.oid_hex << " epoch=" << row.epoch
       << " master=" << row.master_epoch << " lag=" << lag
       << " staleness_ms=" << row.staleness_ms
       << " expiry_s=" << row.expiry_horizon_s << " state=" << state << '\n';
  }
  return HttpResponse::make(200, "OK", util::to_bytes(os.str()), "text/plain");
}

HttpResponse AdminHttpServer::handle(net::ServerContext& ctx,
                                     const HttpRequest& request) {
  if (request.method != "GET") {
    HttpResponse resp = error_response(405, "405 method not allowed\n");
    resp.headers.set("Allow", "GET");
    return resp;
  }
  std::string path = request.target;
  std::string query;
  if (std::size_t q = path.find('?'); q != std::string::npos) {
    query = path.substr(q + 1);
    path.resize(q);
  }
  if (path == "/metrics") {
    if (!query.empty()) return error_response(400, "400 bad query\n");
    return serve_metrics();
  }
  if (path == "/healthz") {
    if (!query.empty()) return error_response(400, "400 bad query\n");
    return serve_healthz(ctx);
  }
  if (path == "/tracez") return serve_tracez(query);
  if (path == "/profilez") return serve_profilez(query);
  if (path == "/federate" && config_.aggregator != nullptr) {
    if (!query.empty()) return error_response(400, "400 bad query\n");
    return serve_federate();
  }
  if (path == "/alertz" && config_.slo != nullptr) {
    if (!query.empty()) return error_response(400, "400 bad query\n");
    return serve_alertz(ctx);
  }
  if (path == "/replicaz" && config_.aggregator != nullptr) {
    return serve_replicaz(query);
  }
  return error_response(404, "404 not found\n");
}

net::MessageHandler AdminHttpServer::handler() {
  return [this](net::ServerContext& ctx, BytesView raw) -> Result<Bytes> {
    Result<HttpRequest> req = http::parse_request(raw);
    if (!req.is_ok()) {
      return error_response(400, "400 bad request\n").serialize();
    }
    return handle(ctx, *req).serialize();
  };
}

}  // namespace globe::obs
