// End-to-end distributed tracing: one proxy fetch must yield ONE stitched
// trace whose server-side spans (naming, location, object server) sit under
// the proxy's pipeline stages — and the admin surface must serve it.
#include <gtest/gtest.h>

#include "globedoc/proxy.hpp"
#include "http/parser.hpp"
#include "obs/admin.hpp"
#include "obs/collector.hpp"
#include "obs/export.hpp"
#include "tests/globedoc/world_fixture.hpp"

namespace globe::globedoc {
namespace {

using testing::WorldFixture;

struct TraceStitchFixture : WorldFixture {
  void SetUp() override {
    WorldFixture::SetUp();
    // The proxy and every dispatcher default to the process-wide collector;
    // keep everything so the assertions below are deterministic.
    collector = &obs::global_trace_collector();
    collector->set_policy({/*keep_slower_than=*/0, /*keep_one_in=*/1});
    collector->clear();
  }

  obs::TraceCollector* collector = nullptr;
};

// Spans named "rpc:*" anywhere under `root`, depth-first.
std::vector<const obs::SpanRecord*> rpc_spans(const obs::SpanRecord& root) {
  std::vector<const obs::SpanRecord*> out;
  std::vector<const obs::SpanRecord*> stack{&root};
  while (!stack.empty()) {
    const obs::SpanRecord* node = stack.back();
    stack.pop_back();
    if (node->name.rfind("rpc:", 0) == 0) out.push_back(node);
    for (const auto& child : node->children) stack.push_back(&child);
  }
  return out;
}

TEST_F(TraceStitchFixture, OneFetchYieldsOneStitchedCrossHostTrace) {
  GlobeDocProxy proxy(*client_flow, proxy_config());
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  const FetchMetrics& m = result->metrics;
  ASSERT_TRUE(m.trace_hi != 0 || m.trace_lo != 0);

  // ONE trace: the server-side fragments joined the proxy's, they did not
  // start traces of their own.
  EXPECT_EQ(collector->traces_seen(), 1u);
  auto trace = collector->find(m.trace_hi, m.trace_lo);
  ASSERT_TRUE(trace.has_value());
  EXPECT_TRUE(trace->complete);
  EXPECT_EQ(trace->root.name, FetchStage::kFetch);
  EXPECT_EQ(trace->root.host, "proxy");

  // Every hop of the pipeline produced a server-side fragment: at least the
  // naming resolve, the location lookup and the object-server calls.
  auto rpcs = rpc_spans(trace->root);
  EXPECT_GE(trace->fragments, 4u);
  EXPECT_EQ(rpcs.size(), trace->fragments - 1);
  for (const auto* span : rpcs) {
    EXPECT_NE(span->span_id, 0u);
    EXPECT_FALSE(span->host.empty());
  }

  // The stages contain their own remote work: resolve → naming server,
  // locate → location node, key_check → the object server's security
  // service, element_verify → the access service.
  const obs::SpanRecord* resolve = find_span(trace->root, FetchStage::kResolve);
  ASSERT_NE(resolve, nullptr);
  EXPECT_FALSE(find_all_spans(*resolve, "rpc:naming/1").empty());

  const obs::SpanRecord* locate = find_span(trace->root, FetchStage::kLocate);
  ASSERT_NE(locate, nullptr);
  EXPECT_GT(obs::remote_span_total(*locate), 0u);

  const obs::SpanRecord* key_check =
      find_span(trace->root, FetchStage::kKeyCheck);
  ASSERT_NE(key_check, nullptr);
  EXPECT_EQ(rpc_spans(*key_check).size(), 1u);
  EXPECT_EQ(rpc_spans(*key_check)[0]->name.rfind("rpc:gd.security/", 0), 0u);

  // The element transfer itself runs between stages (the verify span times
  // only the hashing + checks), so the access-service span is a direct
  // child of the fetch root.
  ASSERT_NE(find_span(trace->root, FetchStage::kElementVerify), nullptr);
  EXPECT_FALSE(find_all_spans(trace->root, "rpc:gd.access/1").empty());

  // The §4 decomposition: remote (server) time is a strict, nonzero part of
  // the total, and each stage's server time fits inside the stage.
  util::SimDuration server = obs::remote_span_total(trace->root);
  EXPECT_GT(server, 0u);
  EXPECT_LT(server, trace->root.duration);
  for (const char* stage :
       {FetchStage::kResolve, FetchStage::kLocate, FetchStage::kKeyCheck,
        FetchStage::kIdentity, FetchStage::kIntegrityVerify,
        FetchStage::kElementVerify}) {
    for (const auto* span : find_all_spans(trace->root, stage)) {
      EXPECT_LE(obs::remote_span_total(*span), span->duration) << stage;
    }
  }
}

TEST_F(TraceStitchFixture, SequentialFetchesKeepDistinctTraces) {
  GlobeDocProxy proxy(*client_flow, proxy_config());
  auto first = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(first.is_ok());
  auto second = proxy.fetch(object_name, "logo.gif");
  ASSERT_TRUE(second.is_ok());

  EXPECT_EQ(collector->traces_seen(), 2u);
  EXPECT_TRUE(first->metrics.trace_hi != second->metrics.trace_hi ||
              first->metrics.trace_lo != second->metrics.trace_lo);
  EXPECT_TRUE(collector->find(first->metrics.trace_hi, first->metrics.trace_lo)
                  .has_value());
  EXPECT_TRUE(
      collector->find(second->metrics.trace_hi, second->metrics.trace_lo)
          .has_value());
}

TEST_F(TraceStitchFixture, DedicatedCollectorReceivesTheProxyRoot) {
  // A proxy handed its own collector records roots there; the server-side
  // fragments still go to the global collector (their dispatchers were not
  // re-pointed), so the dedicated trace is the proxy-local view.
  obs::TraceCollector dedicated(8);
  dedicated.set_policy({/*keep_slower_than=*/0, /*keep_one_in=*/1});
  ProxyConfig config = proxy_config();
  config.trace_collector = &dedicated;
  GlobeDocProxy proxy(*client_flow, config);
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok());

  EXPECT_EQ(dedicated.traces_seen(), 1u);
  auto trace =
      dedicated.find(result->metrics.trace_hi, result->metrics.trace_lo);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->root.name, FetchStage::kFetch);
}

TEST_F(TraceStitchFixture, AdminSurfaceServesTheStitchedTrace) {
  GlobeDocProxy proxy(*client_flow, proxy_config());
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok());

  obs::AdminConfig config;
  config.service = "proxy";
  obs::AdminHttpServer admin(config);
  proxy.register_health_checks(admin);
  net::Endpoint admin_ep{client_host, 9901};
  net.bind(admin_ep, admin.handler());

  auto flow = net.open_flow(infra_host);
  http::HttpRequest req;
  req.target = "/tracez";
  auto raw = flow->call(admin_ep, req.serialize());
  ASSERT_TRUE(raw.is_ok());
  auto resp = http::parse_response(*raw);
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 200);
  std::string body = util::to_string(resp->body);
  std::string trace_id =
      obs::TraceContext{result->metrics.trace_hi, result->metrics.trace_lo, 0,
                        true}
          .trace_id();
  EXPECT_NE(body.find(trace_id), std::string::npos);
  EXPECT_NE(body.find("\"fetch\""), std::string::npos);
  EXPECT_NE(body.find("rpc:gd.access/1"), std::string::npos);
}

TEST_F(TraceStitchFixture, ProxyHealthzFlipsOnReplicaLinkFailure) {
  GlobeDocProxy proxy(*client_flow, proxy_config());
  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());

  obs::AdminConfig config;
  config.service = "proxy";
  obs::AdminHttpServer admin(config);
  proxy.register_health_checks(admin);
  net::Endpoint admin_ep{client_host, 9902};
  net.bind(admin_ep, admin.handler());
  auto flow = net.open_flow(infra_host);

  auto healthz = [&]() {
    http::HttpRequest req;
    req.target = "/healthz";
    auto raw = flow->call(admin_ep, req.serialize());
    EXPECT_TRUE(raw.is_ok());
    auto resp = http::parse_response(*raw);
    EXPECT_TRUE(resp.is_ok());
    return *resp;
  };

  EXPECT_EQ(healthz().status, 200);

  // Cut the client's path to the object server: the "replica" probe (the
  // last endpoint a fetch was served from) must now fail.
  net.set_link_down(client_host, server_host, true);
  http::HttpResponse down = healthz();
  EXPECT_EQ(down.status, 503);
  EXPECT_NE(util::to_string(down.body).find("\"name\":\"replica\",\"ok\":false"),
            std::string::npos);

  net.set_link_down(client_host, server_host, false);
  EXPECT_EQ(healthz().status, 200);
}

// GET /tracez from the process-wide collector, as an operator would.
std::string tracez(net::SimNet& net, net::HostId host, std::uint16_t port) {
  obs::AdminHttpServer admin;
  net::Endpoint admin_ep{host, port};
  net.bind(admin_ep, admin.handler());
  auto flow = net.open_flow(host);
  http::HttpRequest req;
  req.target = "/tracez";
  auto raw = flow->call(admin_ep, req.serialize());
  net.unbind(admin_ep);
  EXPECT_TRUE(raw.is_ok());
  auto resp = http::parse_response(*raw);
  EXPECT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 200);
  return util::to_string(resp->body);
}

// Overwrites one element of the served replica AFTER binding material is
// published, so element verification of "index.html" fails.
void tamper_index(ObjectOwner& owner, ObjectServer& server) {
  ReplicaState state = owner.sign_and_snapshot(0, util::seconds(3600));
  state.elements[0].content = util::to_bytes("tampered!");
  ASSERT_TRUE(server.install_replica_unchecked(state).is_ok());
}

TEST_F(TraceStitchFixture, VerificationFailureEventsJoinTheFetchTrace) {
  tamper_index(*owner, *object_server);
  GlobeDocProxy proxy(*client_flow, proxy_config());
  ::testing::internal::CaptureStderr();
  auto result = proxy.fetch(object_name, "index.html");
  std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(err.rfind("[WARN] proxy: element_rejected: host", 0), 0u) << err;

  // The rejection sits on the stitched trace's fetch span, next to the
  // server spans of the RPCs it cost.
  ASSERT_EQ(collector->size(), 1u);
  obs::StitchedTrace trace = collector->recent(1)[0];
  EXPECT_TRUE(trace.complete);
  EXPECT_GE(trace.fragments, 4u);
  ASSERT_EQ(trace.root.name, FetchStage::kFetch);
  ASSERT_EQ(trace.root.events.size(), 1u);
  const obs::SpanEvent& event = trace.root.events[0];
  EXPECT_EQ(event.level, obs::EventLevel::kWarn);
  EXPECT_EQ(event.component, "proxy");
  EXPECT_EQ(event.event, "element_rejected");
  EXPECT_NE(event.detail.find("HASH_MISMATCH"), std::string::npos);
  EXPECT_GE(event.time, trace.root.start);
  EXPECT_LE(event.time, trace.root.start + trace.root.duration);
}

TEST_F(TraceStitchFixture, DefaultTailPolicyKeepsAFastRejectedFetch) {
  // Under the default policy a fast trace is kept one in 16; the first
  // trace after clear() is not that one, and this fetch is fast.  Its
  // warning keeps it anyway, and /tracez serves the event JSON-escaped.
  collector->set_policy(obs::TailSamplingPolicy{});
  tamper_index(*owner, *object_server);
  GlobeDocProxy proxy(*client_flow, proxy_config());
  ::testing::internal::CaptureStderr();
  auto result = proxy.fetch(object_name, "index.html");
  ::testing::internal::GetCapturedStderr();
  ASSERT_FALSE(result.is_ok());

  EXPECT_EQ(collector->traces_seen(), 1u);
  ASSERT_EQ(collector->traces_kept(), 1u);
  obs::StitchedTrace trace = collector->recent(1)[0];
  EXPECT_LT(trace.duration(), obs::TailSamplingPolicy{}.keep_slower_than);
  ASSERT_EQ(trace.root.events.size(), 1u);
  EXPECT_EQ(trace.root.events[0].event, "element_rejected");

  std::string body = tracez(net, infra_host, 9903);
  EXPECT_NE(body.find(trace.trace_id()), std::string::npos);
  EXPECT_NE(body.find("\"event\":\"element_rejected\",\"detail\":\"" +
                      obs::json_escape(trace.root.events[0].detail) + "\""),
            std::string::npos);
}

TEST_F(TraceStitchFixture, FailedAdminAuthEventRidesTheServerSpan) {
  // The owner's key is revoked (the object server restarts with a keystore
  // that no longer lists it), then a traced update is refused: the refusal
  // is recorded on the object server's rpc span inside the caller's trace.
  ObjectServer restarted("srv-1", 43);
  rpc::ServiceDispatcher restarted_dispatcher;
  restarted.register_with(restarted_dispatcher);
  net.unbind(server_ep);
  net.bind(server_ep, restarted_dispatcher.handler());
  obs::Tracer tracer([this] { return publish_flow->now(); });
  tracer.set_sink(collector);
  ::testing::internal::CaptureStderr();
  {
    auto root = tracer.span("refresh");
    EXPECT_FALSE(owner->refresh_replicas(*publish_flow, 0, util::seconds(3600))
                     .is_ok());
  }
  std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err,
            "[WARN] server: admin_auth_failed: srv-1: key not in keystore "
            "(update)\n");

  auto trace = collector->find(tracer.trace_hi(), tracer.trace_lo());
  ASSERT_TRUE(trace.has_value());
  EXPECT_TRUE(trace->complete);
  EXPECT_TRUE(trace->root.events.empty());
  const obs::SpanRecord* update = find_span(trace->root, "rpc:gd.admin/3");
  ASSERT_NE(update, nullptr);
  ASSERT_EQ(update->events.size(), 1u);
  EXPECT_EQ(update->events[0].level, obs::EventLevel::kWarn);
  EXPECT_EQ(update->events[0].component, "server");
  EXPECT_EQ(update->events[0].event, "admin_auth_failed");
  EXPECT_EQ(update->events[0].detail, "srv-1: key not in keystore (update)");
}

TEST_F(TraceStitchFixture, PeerErrorTextCannotForgeAStderrLine) {
  // A lying replica answers every call with an error whose message carries
  // a newline and a forged log line.  The proxy's one warning stays one
  // stderr line; the span keeps the raw text and /tracez escapes it.
  net.unbind(server_ep);
  net.bind(server_ep, [](net::ServerContext&, util::BytesView) {
    return util::Result<util::Bytes>(
        util::ErrorCode::kInternal, "boom\n[WARN] proxy: forged_event: all good");
  });
  GlobeDocProxy proxy(*client_flow, proxy_config());
  ::testing::internal::CaptureStderr();
  auto result = proxy.fetch(object_name, "index.html");
  std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(err, "[WARN] proxy: binding_failed: " + server_ep.to_string() +
                     ": INTERNAL: boom\\x0a[WARN] proxy: forged_event: all "
                     "good\n");

  ASSERT_EQ(collector->size(), 1u);
  obs::StitchedTrace trace = collector->recent(1)[0];
  ASSERT_EQ(trace.root.events.size(), 1u);
  EXPECT_EQ(trace.root.events[0].detail,
            server_ep.to_string() +
                ": INTERNAL: boom\n[WARN] proxy: forged_event: all good");
  std::string body = tracez(net, infra_host, 9904);
  EXPECT_NE(body.find("INTERNAL: boom\\n[WARN] proxy: forged_event"),
            std::string::npos);
}

}  // namespace
}  // namespace globe::globedoc
