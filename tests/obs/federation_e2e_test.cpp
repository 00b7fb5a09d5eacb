// End-to-end telemetry-plane acceptance: a multi-node SimNet fleet scraped
// by a central aggregator, surfaced through /federate and /alertz, with a
// slow replica tripping the latency burn-rate alert (evaluated in the scrape
// round) and scrape RPCs visible in /tracez.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "http/parser.hpp"
#include "net/simnet.hpp"
#include "obs/admin.hpp"
#include "obs/collector.hpp"
#include "obs/telemetry.hpp"
#include "rpc/rpc.hpp"

namespace globe::obs {
namespace {

using http::HttpRequest;
using http::HttpResponse;
using util::seconds;

struct FederationFixture : ::testing::Test {
  struct FleetNode {
    std::string name;
    std::string role;
    MetricsRegistry registry;
    std::unique_ptr<TelemetryNode> telemetry;
    rpc::ServiceDispatcher dispatcher;
    net::HostId host;
    net::Endpoint endpoint;
  };

  FleetNode& add_node(const std::string& name, const std::string& role) {
    auto node = std::make_unique<FleetNode>();
    node->name = name;
    node->role = role;
    node->host = net.add_host({name, net::CpuModel{}});
    node->telemetry =
        std::make_unique<TelemetryNode>(node->registry, name, role);
    node->telemetry->register_with(node->dispatcher);
    node->dispatcher.set_trace_sink(&collector);
    node->endpoint = net::Endpoint{node->host, 9100};
    net.bind(node->endpoint, node->dispatcher.handler());
    agg->add_target({name, role, node->endpoint});
    fleet.push_back(std::move(node));
    return *fleet.back();
  }

  void SetUp() override {
    collector.set_policy({/*keep_slower_than=*/0, /*keep_one_in=*/1});
    TelemetryAggregator::Config config;
    config.trace_sink = &collector;
    agg = std::make_unique<TelemetryAggregator>(std::move(config));

    admin_host = net.add_host({"admin", net::CpuModel{}});
    client_host = net.add_host({"client", net::CpuModel{}});

    proxy = &add_node("proxy-1", "proxy");
    os1 = &add_node("os-1", "object-server");
    os2 = &add_node("os-2", "object-server");

    SloSpec spec;
    spec.name = "fetch-latency";
    spec.type = SloSpec::Type::kLatency;
    spec.metric = "proxy.fetch_ms";
    spec.threshold_ms = 100;
    spec.objective = 0.9;
    spec.short_window = seconds(60);
    spec.long_window = seconds(300);
    spec.burn_threshold = 2.0;
    agg->add_slo(spec);

    AdminConfig admin_config;
    admin_config.service = "aggregator";
    admin_config.registry = &agg->self_registry();
    admin_config.collector = &collector;
    admin_config.aggregator = agg.get();
    admin = std::make_unique<AdminHttpServer>(admin_config);
    admin_ep = net::Endpoint{admin_host, 9900};
    net.bind(admin_ep, admin->handler());

    flow = net.open_flow(admin_host);
    client = net.open_flow(client_host);
  }

  /// Simulated workload for one 10 s interval, then a scrape round.
  /// `slow_ms` is os-2's serving latency as observed by the proxy.
  void tick(double slow_ms) {
    for (int i = 0; i < 20; ++i) {
      proxy->registry.counter("proxy.fetches", {{"outcome", "ok"}}).inc();
      proxy->registry
          .histogram("proxy.fetch_ms", {10, 100, 1000}, {{"replica", "os-1"}})
          .observe(5);
      proxy->registry
          .histogram("proxy.fetch_ms", {10, 100, 1000}, {{"replica", "os-2"}})
          .observe(slow_ms);
      os1->registry.counter("object_server.requests").inc();
      os2->registry.counter("object_server.requests").inc();
    }
    ++ticks;
    flow->set_time(util::seconds(10) * ticks);
    agg->scrape_round(*flow);
  }

  HttpResponse get(const std::string& target) {
    HttpRequest req;
    req.method = "GET";
    req.target = target;
    client->set_time(flow->now());
    auto raw = client->call(admin_ep, req.serialize());
    EXPECT_TRUE(raw.is_ok()) << raw.status().to_string();
    auto resp = http::parse_response(*raw);
    EXPECT_TRUE(resp.is_ok()) << resp.status().to_string();
    return *resp;
  }

  static std::string body_of(const HttpResponse& resp) {
    return std::string(resp.body.begin(), resp.body.end());
  }

  net::SimNet net;
  TraceCollector collector{64};
  std::unique_ptr<TelemetryAggregator> agg;
  std::unique_ptr<AdminHttpServer> admin;
  std::vector<std::unique_ptr<FleetNode>> fleet;
  FleetNode* proxy = nullptr;
  FleetNode* os1 = nullptr;
  FleetNode* os2 = nullptr;
  net::HostId admin_host, client_host;
  net::Endpoint admin_ep;
  std::unique_ptr<net::SimFlow> flow, client;
  std::uint64_t ticks = 0;
};

TEST_F(FederationFixture, FederateServesMergedFleetView) {
  for (int i = 0; i < 3; ++i) tick(/*slow_ms=*/5);

  HttpResponse resp = get("/federate");
  EXPECT_EQ(resp.status, 200);
  std::string body = body_of(resp);

  // Node-health header: every target fresh.
  EXPECT_NE(body.find("# node os-1 role=object-server fresh"),
            std::string::npos);
  EXPECT_NE(body.find("# node os-2 role=object-server fresh"),
            std::string::npos);
  EXPECT_NE(body.find("# node proxy-1 role=proxy fresh"), std::string::npos);

  // Per-node series carry aggregator-stamped labels; the cluster aggregate
  // is the unlabeled sum (3 ticks x 20 requests x 2 servers).
  EXPECT_NE(body.find(
                "object_server.requests{node=os-1,role=object-server} 60"),
            std::string::npos);
  EXPECT_NE(body.find(
                "object_server.requests{node=os-2,role=object-server} 60"),
            std::string::npos);
  EXPECT_NE(body.find("object_server.requests 120"), std::string::npos);

  // Aggregator self-telemetry rides along.
  EXPECT_NE(body.find("telemetry.scrape_rounds"), std::string::npos);
  EXPECT_NE(body.find("telemetry.nodes_fresh"), std::string::npos);

  // Derived windowed series appear once the ring spans the window.
  EXPECT_NE(body.find("object_server.requests:rate1m"), std::string::npos);

  // Merged histogram totals equal the per-node sums.
  Snapshot merged = agg->merged();
  std::uint64_t per_replica = 0, cluster = 0;
  for (const MetricSample& s : merged.samples) {
    if (s.name != "proxy.fetch_ms") continue;
    bool has_node = false;
    for (const auto& [k, v] : s.labels) has_node |= k == "node";
    if (has_node) {
      per_replica += s.count;
    } else {
      cluster += s.count;
    }
  }
  EXPECT_EQ(per_replica, 120u);  // 3 ticks x 20 x 2 replica series
  EXPECT_EQ(cluster, 120u);      // replica label kept, node/role stripped
}

TEST_F(FederationFixture, MergedLabelSetsNameOnlyFleetMembers) {
  for (int i = 0; i < 2; ++i) tick(/*slow_ms=*/5);
  for (const MetricSample& s : agg->merged().samples) {
    for (const auto& [k, v] : s.labels) {
      if (k != "node") continue;
      EXPECT_TRUE(v == "proxy-1" || v == "os-1" || v == "os-2" ||
                  v == "aggregator")
          << s.name << " names unknown node " << v;
    }
  }
}

TEST_F(FederationFixture, SlowReplicaTripsLatencyAlertThenResolves) {
  // Healthy baseline.
  for (int i = 0; i < 7; ++i) tick(/*slow_ms=*/5);
  std::string body = body_of(get("/alertz"));
  EXPECT_EQ(body.find("firing"), std::string::npos);

  // os-2 turns slow: its replica-labeled series burns through the budget.
  for (int i = 0; i < 4; ++i) tick(/*slow_ms=*/500);
  body = body_of(get("/alertz"));
  // A GET only reads the round's verdict: asking again changes nothing.
  EXPECT_EQ(body_of(get("/alertz")), body);
  EXPECT_NE(body.find("\"state\":\"firing\""), std::string::npos);
  EXPECT_NE(body.find("\"slo\":\"fetch-latency\""), std::string::npos);
  EXPECT_NE(body.find("\"replica\":\"os-2\""), std::string::npos);
  EXPECT_EQ(body.find("\"replica\":\"os-1\""), std::string::npos);

  // Recovery: the alert drains through pending to resolved, and the
  // incident stays listed as history.
  bool resolved = false;
  for (int i = 0; i < 45 && !resolved; ++i) {
    tick(/*slow_ms=*/5);
    body = body_of(get("/alertz"));
    resolved = body.find("\"state\":\"resolved\"") != std::string::npos &&
               body.find("\"state\":\"firing\"") == std::string::npos &&
               body.find("\"state\":\"pending\"") == std::string::npos;
  }
  EXPECT_TRUE(resolved) << body;
  EXPECT_NE(body.find("\"replica\":\"os-2\""), std::string::npos);
}

TEST_F(FederationFixture, ScrapeRpcsAreVisibleInTracez) {
  for (int i = 0; i < 2; ++i) tick(/*slow_ms=*/5);

  HttpResponse resp = get("/tracez");
  EXPECT_EQ(resp.status, 200);
  std::string body = body_of(resp);
  EXPECT_NE(body.find("telemetry.scrape_round"), std::string::npos);
  EXPECT_NE(body.find("scrape:os-1"), std::string::npos);
  // Server-side spans stitched under the aggregator's scrape spans.
  EXPECT_NE(body.find("rpc:telemetry/1"), std::string::npos);
}

TEST_F(FederationFixture, FederateReportsStaleNodeAfterLinkLoss) {
  tick(/*slow_ms=*/5);
  net.set_link_down(admin_host, os2->host, true);
  tick(/*slow_ms=*/5);

  std::string body = body_of(get("/federate"));
  EXPECT_NE(body.find("# node os-2 role=object-server stale"),
            std::string::npos);
  EXPECT_NE(body.find("failed=1"), std::string::npos);
  // The stale node's series are gone from the merged view; the healthy
  // object server's remain.
  EXPECT_EQ(body.find("object_server.requests{node=os-2"), std::string::npos);
  EXPECT_NE(body.find("object_server.requests{node=os-1"), std::string::npos);
  EXPECT_NE(body.find("telemetry.scrape_errors{node=os-2"), std::string::npos);

  net.set_link_down(admin_host, os2->host, false);
  tick(/*slow_ms=*/5);
  body = body_of(get("/federate"));
  EXPECT_NE(body.find("# node os-2 role=object-server fresh"),
            std::string::npos);
}

TEST_F(FederationFixture, StaleNodeLeavesTheClusterRateToTheRest) {
  tick(/*slow_ms=*/5);
  net.set_link_down(admin_host, os2->host, true);
  tick(/*slow_ms=*/5);

  // os-2 merely stopped answering: the cluster rate is os-1's 20 requests
  // over the 10 s between the rounds, the same window delta the SLOs read.
  std::string body = body_of(get("/federate"));
  EXPECT_NE(body.find("\nobject_server.requests:rate1m 2\n"),
            std::string::npos)
      << body;
  auto sum = agg->windowed_delta_sum("object_server.requests", {}, seconds(60));
  ASSERT_TRUE(sum.has_value());
  EXPECT_EQ(sum->delta, 20.0);
  EXPECT_EQ(sum->seconds, 10.0);
}

TEST_F(FederationFixture, PeerChosenIdentityIsEscapedInFederate) {
  // A target answering under another identity is rejected, and its scrape
  // error quotes what it claimed: terminal escapes and bells must not
  // reach the /federate body raw.
  rpc::ServiceDispatcher liar;
  liar.register_method(rpc::kTelemetryService, kScrape,
                       [](net::ServerContext&, util::BytesView) {
                         util::Writer w;
                         w.str("os-9\x1b[2J\x07x");
                         w.str("object-server");
                         encode_snapshot(w, Snapshot{});
                         return util::Result<util::Bytes>(w.take());
                       });
  net::HostId liar_host = net.add_host({"os-9", net::CpuModel{}});
  net::Endpoint liar_ep{liar_host, 9100};
  net.bind(liar_ep, liar.handler());
  agg->add_target({"os-9", "object-server", liar_ep});
  tick(/*slow_ms=*/5);

  std::string body = body_of(get("/federate"));
  EXPECT_NE(body.find("answered as os-9\\x1b[2J\\x07x\""), std::string::npos)
      << body;
  for (char c : body) {
    auto byte = static_cast<unsigned char>(c);
    EXPECT_TRUE(c == '\n' || (byte >= 0x20 && byte != 0x7f))
        << "raw control byte " << static_cast<int>(byte);
  }
}

}  // namespace
}  // namespace globe::obs
