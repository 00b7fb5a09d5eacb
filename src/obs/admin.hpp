// Live telemetry endpoints: /metrics, /healthz, /tracez (DESIGN.md §10).
//
// A small HTTP admin surface mountable on any simulated host (the GlobeDoc
// proxy, an object server, the static baseline server) next to its real
// service port.  It reuses the existing HTTP stack — http::parse_request on
// the way in, http::HttpResponse on the way out — so the same handler runs
// over SimNet message framing and over a live TCP socket loop.
//
//   GET /metrics          Prometheus-style flat text of the registry.
//   GET /healthz          JSON readiness: one entry per registered check
//                         (naming reachable, location reachable, replica
//                         channel up, ...).  200 when all pass, 503 with
//                         the failing checks named otherwise.
//   GET /tracez[?min_ms=N]  Recent sampled traces from the collector as
//                         JSON, newest first, filterable by minimum root
//                         duration.
//   GET /federate         Merged cluster snapshot from the telemetry
//                         aggregator in the same text exposition as
//                         /metrics (per-node series + cluster aggregates +
//                         derived :rate1m/:p99_5m), prefixed by one
//                         "# node ..." comment per scrape target so stale
//                         nodes are visible.  404 unless an aggregator is
//                         configured.
//   GET /alertz           SLO burn-rate alerts as JSON (firing / pending /
//                         resolved, with offending labels) as of the
//                         aggregator's latest scrape round, which evaluated
//                         them; a GET only reads.  404 unless an aggregator
//                         is configured.
//   GET /profilez[?fmt=folded][&n=N]
//                         Cost-profile self view (DESIGN.md §15): by
//                         default a table of the top-N probe stacks by
//                         inclusive CPU time (calls, cpu_ns, ns/call,
//                         wall_ns); with fmt=folded, flamegraph-compatible
//                         folded stacks ("frame;frame <self_cpu_ns>").
//   GET /replicaz[?state=S]
//                         Fleet consistency table from the aggregator's
//                         latest round (DESIGN.md §16): one line per
//                         (replica, OID) with epoch, master epoch, lag,
//                         staleness, certificate horizon and the
//                         fresh/stale/diverged/... state, filterable to one
//                         state.  404 unless an aggregator is configured.
//
// Security: the request — target, query string included — crossed the wire
// from an untrusted peer (DESIGN.md §9).  Every query is parsed by one
// strict sanitizer (each endpoint's keys in a fixed order, values bounded
// digits or fixed words); malformed input yields a 400 with a STATIC body,
// never an echo of what was sent.  Anything variable that does land in a
// response body (metric names, span names, host labels) goes through
// json_escape, and /tracez is served as application/json so a hostile span
// name cannot become markup.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "http/message.hpp"
#include "net/transport.hpp"
#include "obs/collector.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "util/bounds_annotations.hpp"
#include "util/mutex.hpp"
#include "util/taint_annotations.hpp"

namespace globe::obs {

class TelemetryAggregator;   // obs/telemetry.hpp

/// Probe helper: true reachability of a peer endpoint.  Sends a minimal
/// no-op frame and reports UNAVAILABLE only when the transport does (link
/// down / nothing bound); any in-protocol error reply still proves the peer
/// is alive and reachable.
util::Status reachability_probe(net::ServerContext& ctx,
                                const net::Endpoint& ep);

struct AdminConfig {
  /// Service label reported by /healthz (e.g. "proxy", "object-server").
  std::string service = "globedoc";
  /// Sources served; null fields fall back to the process-wide defaults.
  MetricsRegistry* registry = nullptr;
  TraceCollector* collector = nullptr;
  /// Cost-profile source for /profilez; also published into `registry` as
  /// profile.* counters on every /metrics scrape, so the fleet view
  /// (/federate) carries per-node crypto cost.  Null = the process-wide
  /// global_profile_registry().
  ProfileRegistry* profile = nullptr;
  /// Cluster-plane source; it has no process-wide default — leaving it
  /// null simply 404s its endpoints (/federate, /alertz, /replicaz).
  TelemetryAggregator* aggregator = nullptr;
};

class AdminHttpServer {
 public:
  explicit AdminHttpServer(AdminConfig config = AdminConfig());

  /// Registers a named readiness check, evaluated on every /healthz.
  void add_health_check(std::string name, HealthProbe probe)
      GLOBE_EXCLUDES(mutex_);

  /// Serves one parsed request.  The request came off the wire, so every
  /// field of it is untrusted input.
  http::HttpResponse handle(net::ServerContext& ctx,
                            GLOBE_UNTRUSTED const http::HttpRequest& request)
      GLOBE_EXCLUDES(mutex_);

  /// MessageHandler adapter (serialized HTTP request in, serialized HTTP
  /// response out) for binding to a SimNet/TCP port.
  net::MessageHandler handler();

 private:
  http::HttpResponse serve_metrics();
  http::HttpResponse serve_healthz(net::ServerContext& ctx)
      GLOBE_EXCLUDES(mutex_);
  http::HttpResponse serve_tracez(const std::string& query);
  http::HttpResponse serve_profilez(const std::string& query);
  http::HttpResponse serve_federate();
  http::HttpResponse serve_alertz();
  http::HttpResponse serve_replicaz(const std::string& query);

  AdminConfig config_;
  mutable util::Mutex mutex_;
  std::vector<std::pair<std::string, HealthProbe>> checks_
      GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex_);
};

}  // namespace globe::obs
