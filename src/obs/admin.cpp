#include "obs/admin.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "http/parser.hpp"
#include "obs/consistency.hpp"
#include "obs/export.hpp"
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

/// Upper bound on the n= row filter: far more stacks than the registry can
/// hold, and small enough that rendering stays cheap.
constexpr std::uint64_t kMaxProfileRows = 10'000;

/// One query parameter an endpoint accepts: a decimal in [min, max] with at
/// most as many digits as `max`, or, when `words` is set, one of them.
struct QueryParam {
  std::string_view key;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::vector<std::string_view> words = {};
};

/// Per parameter: its number, the index of its word, or nullopt if absent.
using QueryValues = std::vector<std::optional<std::uint64_t>>;

/// Strict sanitizer for every admin query string.  Accepts exactly "" or
/// key=value pairs joined by '&', the keys drawn from `params` in that
/// order, each at most once; anything else (unknown, repeated or reordered
/// keys, empty values, signs, whitespace, overlong numbers, other words) is
/// INVALID_ARGUMENT.  The input came off the wire; after this gate only
/// bounded integers survive, so nothing attacker-controlled can reach a
/// response body.
GLOBE_SANITIZER Result<QueryValues> parse_query(
    GLOBE_UNTRUSTED std::string_view query,
    const std::vector<QueryParam>& params) {
  QueryValues out(params.size());
  if (query.empty()) return out;
  const Status bad(util::ErrorCode::kInvalidArgument, "bad query");
  std::size_t next = 0;
  for (std::string_view rest = query;;) {
    std::size_t end = rest.find('&');
    std::string_view pair = rest.substr(0, end);
    std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) return bad;
    std::string_view key = pair.substr(0, eq);
    std::string_view value = pair.substr(eq + 1);
    while (next < params.size() && params[next].key != key) ++next;
    if (next == params.size()) return bad;
    const QueryParam& param = params[next];
    if (!param.words.empty()) {
      auto word = std::find(param.words.begin(), param.words.end(), value);
      if (word == param.words.end()) return bad;
      out[next] = static_cast<std::uint64_t>(word - param.words.begin());
    } else {
      if (value.empty() || value.size() > std::to_string(param.max).size()) {
        return bad;
      }
      std::uint64_t number = 0;
      for (char c : value) {
        if (c < '0' || c > '9') return bad;
        number = number * 10 + static_cast<std::uint64_t>(c - '0');
      }
      if (number < param.min || number > param.max) return bad;
      out[next] = number;
    }
    ++next;
    if (end == std::string_view::npos) return out;
    rest.remove_prefix(end + 1);
  }
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
  static const std::vector<QueryParam> kParams = {
      {.key = "fmt", .words = {"folded"}},
      {.key = "n", .min = 1, .max = kMaxProfileRows}};
  Result<QueryValues> parsed = parse_query(query, kParams);
  if (!parsed.is_ok()) {
    return error_response(400,
                          "400 bad query: expected fmt=folded and/or n=<rows>\n");
  }
  bool folded = (*parsed)[0].has_value();
  // Re-clamp the row count through the length guard: top_n sizes the table
  // buffer, and it arrived in an untrusted query string.
  std::uint32_t top_n = util::checked_count(
      static_cast<std::uint32_t>((*parsed)[1].value_or(20)),
      static_cast<std::uint32_t>(kMaxProfileRows));
  ProfileSnapshot snap = config_.profile->snapshot();
  std::string body = folded ? to_folded(snap)
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
  static const std::vector<QueryParam> kParams = {
      {.key = "min_ms", .max = kMaxMinMs}};
  Result<QueryValues> parsed = parse_query(query, kParams);
  if (!parsed.is_ok()) {
    return error_response(400, "400 bad query: expected min_ms=<millis>\n");
  }
  std::uint64_t min_ms = (*parsed)[0].value_or(0);
  std::vector<StitchedTrace> traces =
      config_.collector->recent(64, util::millis(min_ms));
  std::ostringstream os;
  os << "{\"min_ms\":" << min_ms
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
      // A scrape error can carry peer-chosen bytes (the identity a node
      // answered with, a TCP peer's message): escaped, they stay inert
      // inside this one comment line.
      std::string error;
      append_escaped(error, node.last_error);
      os << " error=\"" << error << '"';
    }
    os << '\n';
  }
  os << to_text(config_.aggregator->merged());
  return HttpResponse::make(200, "OK", util::to_bytes(os.str()), "text/plain");
}

HttpResponse AdminHttpServer::serve_alertz() {
  return HttpResponse::make(
      200, "OK", util::to_bytes(alerts_to_json(config_.aggregator->alerts())),
      "application/json");
}

HttpResponse AdminHttpServer::serve_replicaz(const std::string& query) {
  static const std::vector<QueryParam> kParams = {
      {.key = "state",
       .words = {"fresh", "stale", "diverged", "expired", "missing",
                 "unreachable"}}};
  Result<QueryValues> parsed = parse_query(query, kParams);
  if (!parsed.is_ok()) {
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
  std::optional<std::uint64_t> filter = (*parsed)[0];
  for (const ReplicaRow& row : rows) {
    const char* state = replica_consistency_name(row.state);
    if (filter.has_value() && kParams[0].words[*filter] != state) continue;
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
  // An endpoint without parameters accepts only the empty query.
  auto plain = [&](auto serve) {
    return parse_query(query, {}).is_ok()
               ? serve()
               : error_response(400, "400 bad query\n");
  };
  bool fleet = config_.aggregator != nullptr;
  if (path == "/metrics") return plain([&] { return serve_metrics(); });
  if (path == "/healthz") return plain([&] { return serve_healthz(ctx); });
  if (path == "/tracez") return serve_tracez(query);
  if (path == "/profilez") return serve_profilez(query);
  if (path == "/federate" && fleet) {
    return plain([&] { return serve_federate(); });
  }
  if (path == "/alertz" && fleet) return plain([&] { return serve_alertz(); });
  if (path == "/replicaz" && fleet) return serve_replicaz(query);
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
