// Admin telemetry endpoints over SimNet: /metrics, /healthz, /tracez.
#include "obs/admin.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "http/parser.hpp"
#include "net/simnet.hpp"
#include "obs/export.hpp"

namespace globe::obs {
namespace {

using http::HttpRequest;
using http::HttpResponse;
using util::millis;

struct AdminFixture : ::testing::Test {
  void SetUp() override {
    admin_host = net.add_host({"admin", net::CpuModel{}});
    peer_host = net.add_host({"peer", net::CpuModel{}});
    client_host = net.add_host({"client", net::CpuModel{}});

    collector.set_policy({/*keep_slower_than=*/0, /*keep_one_in=*/1});
    AdminConfig config;
    config.service = "test-service";
    config.registry = &registry;
    config.collector = &collector;
    config.profile = &profile;
    // Deterministic probe clocks: every read advances 100 ns, so probe
    // costs in /profilez are exact and runs are byte-identical.
    profile.set_clocks([this] { return clock_ns += 100; },
                       [this] { return clock_ns += 100; });
    admin = std::make_unique<AdminHttpServer>(config);

    admin_ep = net::Endpoint{admin_host, 9900};
    net.bind(admin_ep, admin->handler());

    // A live peer for reachability probes: any bound handler proves the
    // endpoint reachable, even one that only returns errors.
    peer_ep = net::Endpoint{peer_host, 42};
    net.bind(peer_ep, [](net::ServerContext&, util::BytesView) {
      return util::Result<util::Bytes>(util::ErrorCode::kNotFound, "no-op");
    });

    flow = net.open_flow(client_host);
  }

  HttpResponse get(const std::string& target, const std::string& method = "GET") {
    HttpRequest req;
    req.method = method;
    req.target = target;
    auto raw = flow->call(admin_ep, req.serialize());
    EXPECT_TRUE(raw.is_ok()) << raw.status().to_string();
    auto resp = http::parse_response(*raw);
    EXPECT_TRUE(resp.is_ok()) << resp.status().to_string();
    return *resp;
  }

  static std::string trace_id_of(std::uint64_t id) {
    return TraceContext{id, id, 0, true}.trace_id();
  }

  void record_trace(std::uint64_t id, util::SimDuration duration) {
    TraceFragment f;
    f.trace_hi = id;
    f.trace_lo = id;
    f.span.name = "fetch";
    f.span.span_id = 100 + id;
    f.span.duration = duration;
    collector.record(f);
  }

  net::SimNet net;
  net::HostId admin_host, peer_host, client_host;
  MetricsRegistry registry;
  TraceCollector collector{16};
  ProfileRegistry profile;
  std::uint64_t clock_ns = 0;
  std::unique_ptr<AdminHttpServer> admin;
  net::Endpoint admin_ep, peer_ep;
  std::unique_ptr<net::SimFlow> flow;
};

TEST_F(AdminFixture, MetricsServesTheRegistrySnapshot) {
  registry.counter("proxy.fetches", {{"outcome", "ok"}}).inc(3);
  registry.gauge("replication.dynamic_replicas").set(2);

  HttpResponse resp = get("/metrics");
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.headers.get("Content-Type").value_or(""), "text/plain");
  // The body IS the exporter's rendering of the live registry.
  EXPECT_EQ(util::to_string(resp.body), to_text(registry.snapshot()));
  EXPECT_NE(util::to_string(resp.body).find("proxy.fetches"), std::string::npos);
}

TEST_F(AdminFixture, HealthzReportsEveryCheckAndOverallStatus) {
  bool degraded = false;
  admin->add_health_check("always_ok", [](net::ServerContext&) {
    return util::Status::ok();
  });
  admin->add_health_check("toggle", [&degraded](net::ServerContext&) {
    return degraded ? util::Status(util::ErrorCode::kUnavailable, "injected")
                    : util::Status::ok();
  });

  HttpResponse healthy = get("/healthz");
  EXPECT_EQ(healthy.status, 200);
  std::string body = util::to_string(healthy.body);
  EXPECT_NE(body.find("\"service\":\"test-service\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"always_ok\",\"ok\":true"), std::string::npos);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);

  degraded = true;
  HttpResponse sick = get("/healthz");
  EXPECT_EQ(sick.status, 503);
  body = util::to_string(sick.body);
  EXPECT_NE(body.find("\"name\":\"toggle\",\"ok\":false"), std::string::npos);
  EXPECT_NE(body.find("injected"), std::string::npos);
  EXPECT_NE(body.find("\"status\":\"degraded\""), std::string::npos);
}

TEST_F(AdminFixture, HealthzFlipsWhenAProbedLinkGoesDown) {
  admin->add_health_check("peer", [this](net::ServerContext& ctx) {
    return reachability_probe(ctx, peer_ep);
  });

  // The peer answers kNotFound to the probe frame — in-protocol errors
  // still prove reachability.
  EXPECT_EQ(get("/healthz").status, 200);

  net.set_link_down(admin_host, peer_host, true);
  HttpResponse down = get("/healthz");
  EXPECT_EQ(down.status, 503);
  EXPECT_NE(util::to_string(down.body).find("\"name\":\"peer\",\"ok\":false"),
            std::string::npos);

  net.set_link_down(admin_host, peer_host, false);
  EXPECT_EQ(get("/healthz").status, 200);
}

TEST_F(AdminFixture, TracezHonorsMinMs) {
  record_trace(1, millis(10));
  record_trace(2, millis(300));
  record_trace(3, millis(40));

  HttpResponse all = get("/tracez");
  EXPECT_EQ(all.status, 200);
  EXPECT_EQ(all.headers.get("Content-Type").value_or(""), "application/json");
  std::string body = util::to_string(all.body);
  EXPECT_NE(body.find("\"min_ms\":0"), std::string::npos);
  EXPECT_NE(body.find("\"seen\":3"), std::string::npos);
  EXPECT_NE(body.find("\"kept\":3"), std::string::npos);
  EXPECT_NE(body.find(trace_id_of(1)), std::string::npos);
  EXPECT_NE(body.find(trace_id_of(2)), std::string::npos);

  HttpResponse slow = get("/tracez?min_ms=100");
  std::string slow_body = util::to_string(slow.body);
  EXPECT_NE(slow_body.find("\"min_ms\":100"), std::string::npos);
  EXPECT_NE(slow_body.find(trace_id_of(2)), std::string::npos);
  EXPECT_EQ(slow_body.find(trace_id_of(1)), std::string::npos);
  EXPECT_EQ(slow_body.find(trace_id_of(3)), std::string::npos);
}

TEST_F(AdminFixture, MalformedQueriesGet400WithoutReflection) {
  const std::string evil = "<script>alert(1)</script>";
  const std::vector<std::string> targets = {
      "/tracez?min_ms=abc",  "/tracez?min_ms=",     "/tracez?min_ms=12345678901",
      "/tracez?min_ms=1;x",  "/tracez?depth=3",     "/tracez?min_ms=" + evil,
      "/metrics?x=1",        "/healthz?verbose=1"};
  for (const std::string& target : targets) {
    HttpResponse resp = get(target);
    EXPECT_EQ(resp.status, 400) << target;
    std::string body = util::to_string(resp.body);
    // Static body only: nothing the peer sent may be echoed back.
    EXPECT_EQ(body.find("script"), std::string::npos) << target;
    EXPECT_EQ(body.find("abc"), std::string::npos) << target;
    EXPECT_EQ(body.find("depth"), std::string::npos) << target;
  }
}

TEST_F(AdminFixture, BoundaryMinMsValuesAccepted) {
  EXPECT_EQ(get("/tracez?min_ms=0").status, 200);
  EXPECT_EQ(get("/tracez?min_ms=1000000000").status, 200);
  EXPECT_EQ(get("/tracez?min_ms=1000000001").status, 400);
}

TEST_F(AdminFixture, ProfilezServesTableAndFoldedStacks) {
  {
    CostProbe outer("proxy.fetch", &profile);
    CostProbe inner("rsa_verify", &profile);
  }
  HttpResponse table = get("/profilez");
  EXPECT_EQ(table.status, 200);
  EXPECT_EQ(table.headers.get("Content-Type").value_or(""), "text/plain");
  std::string body = util::to_string(table.body);
  EXPECT_NE(body.find("# profile: top 2 of 2 stacks by cpu_ns"),
            std::string::npos) << body;
  EXPECT_NE(body.find("proxy.fetch;rsa_verify"), std::string::npos);

  HttpResponse folded = get("/profilez?fmt=folded");
  EXPECT_EQ(folded.status, 200);
  // One shared step clock feeds both wall and cpu; the 8 reads (wall+cpu
  // at each probe entry/exit) advance it 100 ns each, so inner inclusive
  // cpu = 200 ns and outer self cpu = 600 - 200 = 400 ns.  Folded output
  // is the self times, byte-exact under the deterministic clock.
  std::string folded_body = util::to_string(folded.body);
  EXPECT_EQ(folded_body, "proxy.fetch 400\nproxy.fetch;rsa_verify 200\n");

  // n= truncates the table to the heaviest stacks.
  HttpResponse top1 = get("/profilez?n=1");
  EXPECT_EQ(top1.status, 200);
  EXPECT_NE(util::to_string(top1.body).find("top 1 of 2"), std::string::npos);
  EXPECT_EQ(get("/profilez?fmt=folded&n=3").status, 200);
}

TEST_F(AdminFixture, ProfilezMalformedQueriesGet400WithoutReflection) {
  const std::string evil = "<script>alert(1)</script>";
  const std::vector<std::string> targets = {
      "/profilez?fmt=html",       "/profilez?fmt=folded&",
      "/profilez?n=",             "/profilez?n=0",
      "/profilez?n=10001",        "/profilez?n=1x",
      "/profilez?n=1&fmt=folded", /* fixed parameter order, like /tracez */
      "/profilez?depth=3",        "/profilez?fmt=" + evil};
  for (const std::string& target : targets) {
    HttpResponse resp = get(target);
    EXPECT_EQ(resp.status, 400) << target;
    std::string body = util::to_string(resp.body);
    EXPECT_EQ(body.find("script"), std::string::npos) << target;
    EXPECT_EQ(body.find("html"), std::string::npos) << target;
    EXPECT_EQ(body.find("depth"), std::string::npos) << target;
  }
  EXPECT_EQ(get("/profilez?n=10000").status, 200);
}

TEST_F(AdminFixture, MetricsScrapePublishesProfileCounters) {
  {
    CostProbe probe("rsa_verify", &profile);
  }
  HttpResponse resp = get("/metrics");
  EXPECT_EQ(resp.status, 200);
  std::string body = util::to_string(resp.body);
  // The scrape folded the profile into the registry before rendering.
  EXPECT_NE(body.find("profile.calls{probe=rsa_verify} 1"),
            std::string::npos) << body;
  EXPECT_NE(body.find("profile.cpu_ns{probe=rsa_verify}"),
            std::string::npos);
}

TEST_F(AdminFixture, NonGetAndUnknownPathsRejected) {
  HttpResponse post = get("/metrics", "POST");
  EXPECT_EQ(post.status, 405);
  EXPECT_EQ(post.headers.get("Allow").value_or(""), "GET");
  EXPECT_EQ(get("/notathing").status, 404);
}

TEST_F(AdminFixture, UnparsableRequestGets400) {
  auto raw = flow->call(admin_ep, util::to_bytes("not http at all"));
  ASSERT_TRUE(raw.is_ok());
  auto resp = http::parse_response(*raw);
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 400);
}

}  // namespace
}  // namespace globe::obs
