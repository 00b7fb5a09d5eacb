// Live telemetry plane: a per-node-instrumented GlobeDoc fleet (proxy,
// object servers, naming server) scraped, consistency-audited and watched
// by SLO burn-rate alerts from a central TelemetryAggregator over SimNet
// RPC, and surfaced on a real localhost HTTP socket (/metrics
// /healthz /tracez /federate /alertz /profilez /replicaz — see DESIGN.md
// §10-11, §15-16).
//
//   ./telemetry_demo [port]      # default 9090
//   curl -s localhost:9090/metrics        # the proxy node's local view
//   curl -s localhost:9090/federate       # merged fleet view + health
//   curl -s localhost:9090/alertz         # SLO burn-rate alerts (JSON)
//   curl -s 'localhost:9090/tracez?min_ms=1'
//   curl -s localhost:9090/profilez               # CPU cost, top stacks
//   curl -s 'localhost:9090/profilez?fmt=folded'  # flamegraph input
//   curl -s localhost:9090/replicaz               # per-OID fleet freshness
//   curl -s 'localhost:9090/replicaz?state=stale' # just the laggards
//
// The simulated world runs a short incident before the socket opens:
// seven healthy 10-second rounds of verified fetches (the owner re-signs
// each round, and two pull replicas os-2/os-3 track the master os-1), then
// the server<->client link degrades to 300 ms AND os-2's upstream goes
// dark.  Four more rounds push the per-replica proxy.fetch_ms series over
// its latency budget while os-2 falls epochs behind the master, so /alertz
// shows the fetch-latency alert firing against the slow replica AND the
// replication-staleness SLO burning, /federate shows the windowed
// :rate1m / :p99_5m series that caught it, and /replicaz shows os-2 stale
// (epochs behind, cert window still open) next to a fresh os-3.
//
// The AdminHttpServer handler is transport-agnostic (serialized request
// bytes in, serialized response bytes out), so the very same object that
// tests mount on a SimNet port here sits behind an accept loop speaking
// plain HTTP/1.1 to curl.  Serves until killed (SIGINT/SIGTERM exit 0).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "cache/tier.hpp"
#include "crypto/drbg.hpp"
#include "globedoc/owner.hpp"
#include "globedoc/proxy.hpp"
#include "globedoc/server.hpp"
#include "http/parser.hpp"
#include "location/builder.hpp"
#include "naming/service.hpp"
#include "net/simnet.hpp"
#include "obs/admin.hpp"
#include "obs/collector.hpp"
#include "obs/telemetry.hpp"
#include "replication/maintainer.hpp"
#include "replication/refresher.hpp"

using namespace globe;

namespace {

// Presents a SimFlow (a client-side Transport) as the ServerContext the
// admin handler needs: health probes issued while serving a live request
// travel over the simulated network like any proxy RPC would.
class DemoContext final : public net::ServerContext {
 public:
  explicit DemoContext(net::SimFlow& flow) : flow_(flow) {}
  util::SimTime now() const override { return flow_.now(); }
  void charge(net::CpuOp op, std::uint64_t amount) override {
    flow_.charge(op, amount);
  }
  net::HostId local_host() const override { return flow_.local_host(); }
  net::Transport& transport() override { return flow_; }

 private:
  net::SimFlow& flow_;
};

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

// One connection: frame request bytes off the socket, serve, reply, close.
void serve_connection(int fd, obs::AdminHttpServer& admin, DemoContext& ctx) {
  http::MessageFramer framer;
  framer.set_max_message(64 * 1024);  // admin requests are tiny
  char buf[4096];
  auto handler = admin.handler();
  while (!framer.has_message()) {
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) return;  // peer went away or sent garbage past the cap
    if (!framer.feed(util::BytesView(reinterpret_cast<std::uint8_t*>(buf),
                                     static_cast<std::size_t>(n)))
             .is_ok()) {
      static const char kBad[] =
          "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n";
      (void)!::write(fd, kBad, sizeof kBad - 1);
      return;
    }
  }
  auto message = framer.take_message();
  auto reply = handler(ctx, message);  // parse failures become 400 inside
  if (!reply.is_ok()) return;
  const util::Bytes response = std::move(*reply).flatten();
  std::size_t off = 0;
  while (off < response.size()) {
    ssize_t n = ::write(fd, response.data() + off, response.size() - off);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 9090;
  if (argc > 1) port = static_cast<std::uint16_t>(std::atoi(argv[1]));

  // --- The simulated world: infra + client host, one published document.
  net::SimNet net;
  auto server_host = net.add_host({"server.vu.nl", net::CpuModel{}});
  auto client_host = net.add_host({"client.example", net::CpuModel{}});
  net.set_link(server_host, client_host, {util::millis(15), 1.0e6});

  // Each role owns a registry so the telemetry plane can scrape and label
  // it individually (node=, role= stamped by its TelemetryNode).  The proxy
  // additionally owns a cost-profile registry (DESIGN.md §15): every fetch
  // charges CPU probes into it, /profilez renders it, and scrapes fold it
  // into the metrics registry as profile.* counters.
  obs::MetricsRegistry naming_registry, server_registry, proxy_registry;
  obs::ProfileRegistry proxy_profile;

  auto zone_rng = crypto::HmacDrbg::from_seed(1);
  auto zone_keys = crypto::rsa_generate(1024, zone_rng);
  auto root_zone = std::make_shared<naming::ZoneAuthority>("", zone_keys);
  rpc::ServiceDispatcher naming_dispatcher;
  naming::NamingServer naming_server(&naming_registry);
  naming_server.add_zone(root_zone);
  naming_server.register_with(naming_dispatcher);
  obs::TelemetryNode naming_telemetry(naming_registry, "ns-1", "naming");
  naming_telemetry.register_with(naming_dispatcher);
  net::Endpoint naming_ep{server_host, 53};
  net.bind(naming_ep, naming_dispatcher.handler());

  location::LocationTree tree(net, {
                                       {"root", "", server_host, 100, false},
                                       {"site-server", "root", server_host, 101, true},
                                       {"site-client", "root", client_host, 101, true},
                                   });

  auto cred_rng = crypto::HmacDrbg::from_seed(2);
  auto credentials = crypto::rsa_generate(1024, cred_rng);
  globedoc::ObjectServer object_server("replica-host-1", 3, &server_registry);
  object_server.authorize(credentials.pub);
  rpc::ServiceDispatcher server_dispatcher;
  object_server.register_with(server_dispatcher);
  obs::TelemetryNode server_telemetry(server_registry, "os-1",
                                      "object-server");
  server_telemetry.set_consistency_source(
      [&object_server] { return object_server.consistency_report(); });
  server_telemetry.register_with(server_dispatcher);
  net::Endpoint server_ep{server_host, 8000};
  net.bind(server_ep, server_dispatcher.handler());

  auto object_rng = crypto::HmacDrbg::from_seed(4);
  auto object = globedoc::GlobeDocObject::create(object_rng, 1024);
  object.put_element({"index.html", "text/html",
                      util::to_bytes("<html><body>telemetry demo</body></html>")});
  object.put_element({"logo.gif", "image/gif", util::Bytes(2048, 0x47)});
  globedoc::ObjectOwner owner(std::move(object), credentials);
  owner.register_name(*root_zone, "news.vu.nl", util::seconds(86400));
  auto owner_flow = net.open_flow(server_host);
  auto state = owner.sign_and_snapshot(owner_flow->now(), util::seconds(3600));
  auto published = owner.publish_replica(*owner_flow, server_ep,
                                         tree.endpoint("site-server"), state);
  if (!published.is_ok()) {
    std::fprintf(stderr, "publish failed: %s\n", published.to_string().c_str());
    return 1;
  }

  // --- Two pull replicas tracking the master os-1 (DESIGN.md §16): os-3
  // stays healthy, os-2 loses its upstream mid-incident and goes stale.
  globedoc::Oid doc_oid = owner.object().oid();
  obs::MetricsRegistry os2_registry, os3_registry;
  globedoc::ObjectServer os2("replica-host-2", 5, &os2_registry);
  globedoc::ObjectServer os3("replica-host-3", 6, &os3_registry);
  rpc::ServiceDispatcher os2_dispatcher, os3_dispatcher;
  os2.register_with(os2_dispatcher);
  os3.register_with(os3_dispatcher);
  obs::TelemetryNode os2_telemetry(os2_registry, "os-2", "object-server");
  os2_telemetry.set_consistency_source(
      [&os2] { return os2.consistency_report(); });
  os2_telemetry.register_with(os2_dispatcher);
  obs::TelemetryNode os3_telemetry(os3_registry, "os-3", "object-server");
  os3_telemetry.set_consistency_source(
      [&os3] { return os3.consistency_report(); });
  os3_telemetry.register_with(os3_dispatcher);
  net::Endpoint os2_ep{server_host, 8001};
  net::Endpoint os3_ep{server_host, 8002};
  net.bind(os2_ep, os2_dispatcher.handler());
  net.bind(os3_ep, os3_dispatcher.handler());

  auto os2_flow = net.open_flow(server_host);
  auto os3_flow = net.open_flow(server_host);
  auto os2_seed = replication::pull_replica(*os2_flow, server_ep, doc_oid, os2, 0);
  auto os3_seed = replication::pull_replica(*os3_flow, server_ep, doc_oid, os3, 0);
  if (!os2_seed.is_ok() || !os3_seed.is_ok()) {
    std::fprintf(stderr, "replica seed pull failed\n");
    return 1;
  }
  replication::ReplicaMaintainer::Config maintainer_config;
  maintainer_config.refresh_margin = util::seconds(100000);  // re-pull each tick
  replication::ReplicaMaintainer os2_maintainer(os2, *os2_flow, maintainer_config);
  replication::ReplicaMaintainer os3_maintainer(os3, *os3_flow, maintainer_config);
  os2_maintainer.track(doc_oid, {server_ep}, os2_seed->version,
                       os2_seed->earliest_expiry);
  os3_maintainer.track(doc_oid, {server_ep}, os3_seed->version,
                       os3_seed->earliest_expiry);

  // --- The verifying proxy, itself a scrapable fleet member.
  obs::global_trace_collector().set_policy(
      {/*keep_slower_than=*/0, /*keep_one_in=*/1});
  auto client_flow = net.open_flow(client_host);
  // The node's verified edge cache (DESIGN.md §12): after the first round
  // fills it, repeat fetches serve locally and cache.{hits,misses,...} ride
  // the same registry into /metrics and the fleet-wide /federate view.
  // Fetch latency stays binding-dominated (naming + cert round trips), so
  // the degraded-link SLO story below still plays out.
  cache::TierConfig tier_config;
  tier_config.registry = &proxy_registry;
  cache::EdgeCacheTier edge_cache(tier_config);
  globedoc::ProxyConfig config;
  config.naming_root = naming_ep;
  config.naming_anchor = zone_keys.pub;
  config.location_site = tree.endpoint("site-client");
  config.registry = &proxy_registry;
  config.edge_cache = &edge_cache;
  config.profile = &proxy_profile;
  globedoc::GlobeDocProxy proxy(*client_flow, config);
  rpc::ServiceDispatcher proxy_dispatcher;
  obs::TelemetryNode proxy_telemetry(proxy_registry, "proxy-1", "proxy",
                                     &proxy_profile);
  proxy_telemetry.register_with(proxy_dispatcher);
  net::Endpoint proxy_telemetry_ep{client_host, 9101};
  net.bind(proxy_telemetry_ep, proxy_dispatcher.handler());

  // --- The cluster plane: aggregator scraping all five nodes, and an SLO
  // on the per-replica fetch latency.  500 ms sits on a proxy.fetch_ms
  // bucket boundary; healthy fetches over the 15 ms link run ~170-260 ms
  // (crypto-dominated), degraded ones blow far past it.  Each round also
  // cross-checks every replica's reported (epoch, digest, expiry) against
  // the master's, and the verdicts land on the aggregator's own registry,
  // which joins the round, so the staleness SLO below sees them.
  obs::TelemetryAggregator aggregator;
  aggregator.add_target({"proxy-1", "proxy", proxy_telemetry_ep});
  aggregator.add_target(
      {"os-1", "object-server", server_ep, obs::AuditRole::kMaster});
  aggregator.add_target({"ns-1", "naming", naming_ep});
  aggregator.add_target(
      {"os-2", "object-server", os2_ep, obs::AuditRole::kReplica});
  aggregator.add_target(
      {"os-3", "object-server", os3_ep, obs::AuditRole::kReplica});

  obs::SloSpec latency;
  latency.name = "fetch-latency";
  latency.type = obs::SloSpec::Type::kLatency;
  latency.metric = "proxy.fetch_ms";
  latency.threshold_ms = 500;
  latency.objective = 0.9;
  latency.short_window = util::seconds(60);
  latency.long_window = util::seconds(300);
  latency.burn_threshold = 2.0;
  aggregator.add_slo(latency);

  // Staleness SLO (DESIGN.md §16): at least 95% of the per-round replica
  // checks must come back fresh.  With one of two replicas stuck,
  // the good fraction drops to ~50% and both burn windows blow past 2x.
  obs::SloSpec staleness;
  staleness.name = "replication-staleness";
  staleness.type = obs::SloSpec::Type::kAvailability;
  staleness.metric = "replication.audit.checks";
  staleness.good_labels = {{"state", "fresh"}};
  staleness.objective = 0.95;
  staleness.short_window = util::seconds(60);
  staleness.long_window = util::seconds(300);
  staleness.burn_threshold = 2.0;
  aggregator.add_slo(staleness);

  // Each maintainer tick runs under a root span on its replica's clock, so
  // a failed refresh shows in /tracez as an event on the tick that failed.
  auto traced_tick = [](replication::ReplicaMaintainer& maintainer,
                        net::SimFlow& flow, const char* host) {
    obs::Tracer tracer([&flow] { return flow.now(); });
    tracer.set_host(host);
    tracer.set_sink(&obs::global_trace_collector());
    auto tick = tracer.span("maintainer.tick");
    maintainer.tick(flow.now());
  };

  // One 10-second ops round: a couple of verified fetches, then a scrape
  // round, which also evaluates the SLOs.
  std::uint64_t round = 0;
  auto ops_round = [&]() -> bool {
    client_flow->set_time(util::seconds(10) * ++round);
    for (const char* element : {"index.html", "logo.gif"}) {
      auto result = proxy.fetch("news.vu.nl", element);
      if (!result.is_ok()) {
        std::fprintf(stderr, "fetch failed: %s\n",
                     result.status().to_string().c_str());
        return false;
      }
      std::printf(
          "[round %2llu] fetched %-10s -> %5zu bytes in %6.1f ms (virtual)\n",
          static_cast<unsigned long long>(round), element,
          result->element.content.size(),
          util::to_millis(result->metrics.total_time));
    }
    edge_cache.run_delayed_pulls(*client_flow);  // background sibling pulls
    // The epoch story: the owner re-signs (master moves to a new epoch),
    // the pull replicas refresh from it, then the scrape round audits them.
    util::SimTime t = client_flow->now();
    owner_flow->set_time(t);
    if (!owner.refresh_replicas(*owner_flow, t, util::seconds(3600)).is_ok()) {
      std::fprintf(stderr, "refresh_replicas failed\n");
      return false;
    }
    os2_flow->set_time(t + util::seconds(2));
    os3_flow->set_time(t + util::seconds(2));
    traced_tick(os2_maintainer, *os2_flow, "os-2");
    traced_tick(os3_maintainer, *os3_flow, "os-3");
    aggregator.scrape_round(*client_flow);
    return true;
  };

  for (int i = 0; i < 7; ++i) {
    if (!ops_round()) return 1;
  }
  std::printf("[net] degrading server<->client link to 300 ms\n");
  net.set_link(server_host, client_host, {util::millis(300), 1.0e6});
  // os-2's upstream goes dark: its maintainer now pulls from a dead
  // endpoint, so the master keeps advancing epochs while os-2 stands
  // still — stale (cert window still open), never diverged.
  std::printf("[net] os-2 upstream lost: repointing its maintainer at a dead source\n");
  os2_maintainer.track(doc_oid, {net::Endpoint{server_host, 9999}}, 0, 0);
  for (int i = 0; i < 4; ++i) {
    if (!ops_round()) return 1;
  }
  for (const obs::AlertState& alert : aggregator.alerts()) {
    std::string labels;
    for (const auto& [k, v] : alert.labels) {
      labels += (labels.empty() ? "" : ",") + k + "=" + v;
    }
    std::printf("[slo] %s{%s} %s (burn short %.1f / long %.1f)\n",
                alert.slo.c_str(), labels.c_str(),
                obs::alert_state_name(alert.state), alert.burn_short,
                alert.burn_long);
  }

  // --- The admin surface over a real socket.  /metrics serves the proxy
  // node's local view; /federate and /alertz serve the cluster plane.
  obs::AdminConfig admin_config;
  admin_config.service = "telemetry-demo";  // collector: the process global
  admin_config.registry = &proxy_registry;
  admin_config.profile = &proxy_profile;
  admin_config.aggregator = &aggregator;
  obs::AdminHttpServer admin(admin_config);
  proxy.register_health_checks(admin);
  // Freshness probe on the master: unhealthy if no state installed within
  // the budget.  The owner re-signed 10s ago, so this reports ok.
  object_server.register_freshness_probe(admin, util::seconds(600));
  DemoContext ctx(*client_flow);

  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) { std::perror("socket"); return 1; }
  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd, 16) < 0) {
    std::perror("bind/listen");
    return 1;
  }
  // sigaction without SA_RESTART: a signal must make the blocking accept()
  // fail with EINTR so the loop can notice g_stop (std::signal would
  // restart the syscall on glibc and the process would never exit).
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  std::signal(SIGPIPE, SIG_IGN);
  std::printf("[admin] serving on http://127.0.0.1:%u "
              "(/metrics /healthz /tracez /federate /alertz /profilez "
              "/replicaz)\n",
              port);
  std::fflush(stdout);

  while (!g_stop) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    serve_connection(fd, admin, ctx);
    ::close(fd);
  }
  ::close(listen_fd);
  std::printf("[admin] shut down\n");
  return 0;
}
