// Fleet consistency observatory end-to-end (DESIGN.md §16): epochs flow
// from signed state to replica reports riding the scrape reply, the
// aggregator's round classifies fresh / stale / diverged per (replica,
// OID), forged or malformed reports die at the decode gate, and /replicaz
// renders the sanitized table.
#include "obs/consistency.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "http/parser.hpp"
#include "obs/admin.hpp"
#include "obs/collector.hpp"
#include "obs/trace.hpp"
#include "obs/telemetry.hpp"
#include "replication/maintainer.hpp"
#include "replication/refresher.hpp"
#include "tests/globedoc/world_fixture.hpp"

namespace globe::replication {
namespace {

using globe::globedoc::testing::WorldFixture;
using globedoc::ObjectServer;
using globedoc::ReplicaState;
using obs::AuditRole;
using obs::ReplicaConsistency;
using obs::ReplicaRow;
using util::ErrorCode;

struct AuditFixture : WorldFixture {
  void SetUp() override {
    WorldFixture::SetUp();

    // The master (WorldFixture's object server) reports consistency on its
    // existing service endpoint.
    master_telemetry = std::make_unique<obs::TelemetryNode>(
        master_registry, "master", "object-server");
    master_telemetry->set_consistency_source(
        [this] { return object_server->consistency_report(); });
    master_telemetry->register_with(server_dispatcher);

    // One honest replica on the client host, seeded by a verified pull.
    mirror = std::make_unique<ObjectServer>("mirror", 93, &mirror_registry);
    mirror->register_with(mirror_dispatcher);
    mirror_telemetry = std::make_unique<obs::TelemetryNode>(
        mirror_registry, "replica-1", "object-server");
    mirror_telemetry->set_consistency_source(
        [this] { return mirror->consistency_report(); });
    mirror_telemetry->register_with(mirror_dispatcher);
    mirror_ep = net::Endpoint{client_host, 8800};
    net.bind(mirror_ep, mirror_dispatcher.handler());

    tick_flow = net.open_flow(client_host);
    auto seeded = pull_replica(*tick_flow, server_ep, oid(), *mirror, 0);
    ASSERT_TRUE(seeded.is_ok()) << seeded.status().to_string();
    seed = *seeded;

    agg = std::make_unique<obs::TelemetryAggregator>();
    agg->add_target(
        {"master", "object-server", server_ep, AuditRole::kMaster});
    agg->add_target(
        {"replica-1", "object-server", mirror_ep, AuditRole::kReplica});
    audit_flow = net.open_flow(client_host);
  }

  globedoc::Oid oid() { return owner->object().oid(); }

  ReplicaRow row_for(const std::string& replica) {
    for (const ReplicaRow& row : agg->rows()) {
      if (row.replica == replica) return row;
    }
    ADD_FAILURE() << "no row for " << replica;
    return {};
  }

  std::string http_get(const net::Endpoint& ep, const std::string& target) {
    http::HttpRequest req;
    req.method = "GET";
    req.target = target;
    auto raw = audit_flow->call(ep, req.serialize());
    EXPECT_TRUE(raw.is_ok()) << raw.status().to_string();
    if (!raw.is_ok()) return "";
    auto resp = http::parse_response(*raw);
    EXPECT_TRUE(resp.is_ok());
    return resp.is_ok() ? util::to_string(resp->body) : "";
  }

  double checks(const std::string& replica, const char* state) {
    return agg->self_registry()
        .counter("replication.audit.checks",
                 {{"replica", replica}, {"state", state}})
        .value();
  }

  obs::MetricsRegistry master_registry, mirror_registry;
  std::unique_ptr<obs::TelemetryNode> master_telemetry, mirror_telemetry;
  std::unique_ptr<ObjectServer> mirror;
  rpc::ServiceDispatcher mirror_dispatcher;
  net::Endpoint mirror_ep;
  std::unique_ptr<net::SimFlow> tick_flow, audit_flow;
  PullResult seed;
  std::unique_ptr<obs::TelemetryAggregator> agg;
};

TEST_F(AuditFixture, SeededReplicaAuditsFresh) {
  agg->scrape_round(*audit_flow);
  ReplicaRow row = row_for("replica-1");
  EXPECT_EQ(row.state, ReplicaConsistency::kFresh);
  EXPECT_EQ(row.epoch, seed.version);
  EXPECT_EQ(row.master_epoch, seed.version);
  EXPECT_EQ(row.oid_hex, oid().to_hex());
  EXPECT_GT(row.expiry_horizon_s, 0);
  EXPECT_TRUE(agg->converged());
  EXPECT_EQ(checks("replica-1", "fresh"), 1.0);
  EXPECT_EQ(agg->self_registry()
                .gauge("replication.stale_replicas")
                .value(),
            0.0);
}

TEST_F(AuditFixture, LinkDownReplicaClassifiesStaleNotDivergedAndRecovers) {
  // The replica's upstream is dead: its maintainer cannot pull, the master
  // re-signs, and the replica falls behind — but its certificate window is
  // still open, so the audit must call it STALE, never diverged.
  obs::MetricsRegistry maintainer_registry;
  ReplicaMaintainer::Config config;
  config.refresh_margin = util::seconds(10000);  // refresh on every tick
  config.registry = &maintainer_registry;
  ReplicaMaintainer maintainer(*mirror, *tick_flow, config);
  net::Endpoint dead{infra_host, 9998};
  maintainer.track(oid(), {dead}, seed.version, seed.earliest_expiry);

  util::SimTime bump = util::seconds(100);
  publish_flow->set_time(bump);
  ASSERT_TRUE(
      owner->refresh_replicas(*publish_flow, bump, util::seconds(3600)).is_ok());
  tick_flow->set_time(bump);
  // The failure is split by reason, prints one warning, and leaves an
  // event on the span the tick ran under.
  obs::Tracer tracer([this] { return tick_flow->now(); });
  ReplicaMaintainer::TickReport report;
  ::testing::internal::CaptureStderr();
  {
    auto tick = tracer.span("maintainer.tick");
    report = maintainer.tick(tick_flow->now());
  }
  std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(maintainer_registry
                .counter("replication.maintainer.failed",
                         {{"reason", "transport"}})
                .value(),
            1.0);
  EXPECT_EQ(err.rfind("[WARN] replication: refresh_failed: " + oid().to_hex() +
                          " reason=transport: ",
                      0),
            0u)
      << err;
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1);
  auto roots = tracer.take_finished();
  ASSERT_EQ(roots.size(), 1u);
  ASSERT_EQ(roots[0].events.size(), 1u);
  EXPECT_EQ(roots[0].events[0].level, obs::EventLevel::kWarn);
  EXPECT_EQ(roots[0].events[0].component, "replication");
  EXPECT_EQ(roots[0].events[0].event, "refresh_failed");

  audit_flow->set_time(bump);
  agg->scrape_round(*audit_flow);
  ReplicaRow stale = row_for("replica-1");
  EXPECT_EQ(stale.state, ReplicaConsistency::kStale);
  EXPECT_LT(stale.epoch, stale.master_epoch);
  EXPECT_FALSE(agg->converged());
  EXPECT_EQ(agg->self_registry()
                .gauge("replication.stale_replicas")
                .value(),
            1.0);

  // A later round measures how long the master has been ahead.
  audit_flow->set_time(bump + util::seconds(30));
  agg->scrape_round(*audit_flow);
  // 30s of rounds since the pair fell behind.
  EXPECT_GE(row_for("replica-1").staleness_ms, 29000.0);

  // Link restored: the next tick pulls the re-signed state and the fleet
  // converges back to fresh.
  maintainer.track(oid(), {server_ep}, seed.version, seed.earliest_expiry);
  tick_flow->set_time(bump + util::seconds(60));
  EXPECT_EQ(maintainer.tick(tick_flow->now()).refreshed, 1u);
  audit_flow->set_time(bump + util::seconds(60));
  agg->scrape_round(*audit_flow);
  EXPECT_EQ(row_for("replica-1").state, ReplicaConsistency::kFresh);
  EXPECT_TRUE(agg->converged());
}

TEST_F(AuditFixture, MalformedReportRejectedAtDecodeGate) {
  // A hostile replica answers the scrape with a report claiming a doc
  // count far past the cap.  The decode gate rejects it, the sender is
  // marked unreachable, scrape_errors increments, and the honest replica's
  // classification is untouched.
  rpc::ServiceDispatcher evil_dispatcher;
  evil_dispatcher.register_method(
      rpc::kTelemetryService, obs::kScrape,
      [](net::ServerContext&, util::BytesView) {
        util::Writer w;
        w.str("evil");
        w.str("object-server");
        obs::encode_snapshot(w, obs::Snapshot{});
        w.u8(obs::kConsistencyVersion);
        w.u32(1u << 20);  // 1M docs claimed, nothing attached
        return util::Result<util::Bytes>(w.take());
      });
  net::Endpoint evil_ep{infra_host, 6666};
  net.bind(evil_ep, evil_dispatcher.handler());
  agg->add_target({"evil", "object-server", evil_ep, AuditRole::kReplica});

  agg->scrape_round(*audit_flow);
  EXPECT_EQ(row_for("evil").state, ReplicaConsistency::kUnreachable);
  EXPECT_EQ(row_for("replica-1").state, ReplicaConsistency::kFresh);
  EXPECT_EQ(agg->self_registry()
                .counter("telemetry.scrape_errors", {{"node", "evil"}})
                .value(),
            1.0);
  EXPECT_EQ(checks("evil", "unreachable"), 1.0);
}

TEST_F(AuditFixture, ForgedEpochCountedAndQuarantinedAsDiverged) {
  // A well-formed lie: valid wire shape, epoch far ahead of the signing
  // authority's.  It cannot be rejected structurally, so the audit counts
  // it as forged and classifies the doc diverged — the lie never makes the
  // fleet look "ahead" or poisons the master's view.
  util::Bytes lied_oid = oid().to_bytes();
  rpc::ServiceDispatcher liar_dispatcher;
  liar_dispatcher.register_method(
      rpc::kTelemetryService, obs::kScrape,
      [lied_oid](net::ServerContext&, util::BytesView) {
        obs::ConsistencyReport report;
        obs::DocConsistency d;
        d.oid = lied_oid;
        d.epoch = 1000;
        d.digest = util::Bytes(obs::kConsistencyDigestSize, 0xAB);
        d.earliest_expiry = util::seconds(100000);
        report.docs.push_back(std::move(d));
        util::Writer w;
        w.str("liar");
        w.str("object-server");
        obs::encode_snapshot(w, obs::Snapshot{});
        obs::encode_consistency(w, report);
        return util::Result<util::Bytes>(w.take());
      });
  net::Endpoint liar_ep{infra_host, 6667};
  net.bind(liar_ep, liar_dispatcher.handler());
  agg->add_target({"liar", "object-server", liar_ep, AuditRole::kReplica});

  std::uint64_t master_before = 0;
  agg->scrape_round(*audit_flow);
  master_before = agg->master_epoch_sum();
  ReplicaRow row = row_for("liar");
  EXPECT_EQ(row.state, ReplicaConsistency::kDiverged);
  EXPECT_GT(row.epoch, row.master_epoch);
  EXPECT_EQ(agg->self_registry()
                .counter("replication.audit.forged", {{"replica", "liar"}})
                .value(),
            1.0);
  EXPECT_EQ(agg->master_epoch_sum(), master_before);
  EXPECT_EQ(agg->self_registry()
                .gauge("replication.diverged_replicas")
                .value(),
            1.0);
}

TEST_F(AuditFixture, TamperedElementSurfacesAsDivergedInReplicaz) {
  // Tamper with the mirror's stored bytes AFTER a verified install (the
  // paper's malicious-replica model): same certificate, same epoch, flipped
  // content.  The report digest is recomputed from stored state, so the
  // audit sees a digest mismatch at an equal epoch — diverged.
  ReplicaState fresh_state = owner->sign_and_snapshot(0, util::seconds(3600));
  ReplicaState tampered = fresh_state;  // same certificate, same epoch
  ASSERT_FALSE(tampered.elements.empty());
  tampered.elements[0].content = util::to_bytes("tampered bytes");
  ASSERT_TRUE(mirror->install_replica_unchecked(tampered).is_ok());
  ASSERT_TRUE(object_server->install_replica_unchecked(fresh_state).is_ok());

  agg->scrape_round(*audit_flow);
  ReplicaRow row = row_for("replica-1");
  EXPECT_EQ(row.state, ReplicaConsistency::kDiverged);

  // And it surfaces on /replicaz, filterable to the diverged rows.
  obs::AdminConfig admin_config;
  admin_config.service = "aggregator";
  admin_config.registry = &agg->self_registry();
  admin_config.aggregator = agg.get();
  obs::AdminHttpServer admin(admin_config);
  net::Endpoint admin_ep{infra_host, 9900};
  net.bind(admin_ep, admin.handler());

  http::HttpRequest req;
  req.method = "GET";
  req.target = "/replicaz?state=diverged";
  auto raw = audit_flow->call(admin_ep, req.serialize());
  ASSERT_TRUE(raw.is_ok());
  auto resp = http::parse_response(*raw);
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 200);
  std::string body = util::to_string(resp->body);
  EXPECT_NE(body.find("replica-1"), std::string::npos);
  EXPECT_NE(body.find("state=diverged"), std::string::npos);
  EXPECT_NE(body.find(oid().to_hex()), std::string::npos);

  // Bad query: static 400, nothing reflected.
  req.target = "/replicaz?state=<script>alert(1)</script>";
  raw = audit_flow->call(admin_ep, req.serialize());
  ASSERT_TRUE(raw.is_ok());
  resp = http::parse_response(*raw);
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 400);
  EXPECT_EQ(util::to_string(resp->body).find("script"), std::string::npos);
}

TEST_F(AuditFixture, FreshnessProbeFlipsWhenInstallsStopArriving) {
  obs::AdminConfig admin_config;
  admin_config.service = "object-server";
  obs::AdminHttpServer admin(admin_config);
  object_server->register_freshness_probe(admin, util::seconds(300));
  net::Endpoint admin_ep{server_host, 9901};
  net.bind(admin_ep, admin.handler());

  http::HttpRequest req;
  req.method = "GET";
  req.target = "/healthz";
  auto probe = net.open_flow(client_host, util::seconds(60));
  auto raw = probe->call(admin_ep, req.serialize());
  ASSERT_TRUE(raw.is_ok());
  auto resp = http::parse_response(*raw);
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 200);

  // No refresh for far longer than the budget: the probe must flip.
  probe->set_time(util::seconds(5000));
  raw = probe->call(admin_ep, req.serialize());
  ASSERT_TRUE(raw.is_ok());
  resp = http::parse_response(*raw);
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 503);
  std::string body = util::to_string(resp->body);
  EXPECT_NE(body.find("replication-freshness"), std::string::npos);
  EXPECT_NE(body.find("replication stale"), std::string::npos);

  // A fresh install (a pull) resets the horizon.
  auto pull_flow = net.open_flow(server_host, util::seconds(5100));
  // Re-sign so the master itself absorbs a newer state.
  publish_flow->set_time(util::seconds(5100));
  ASSERT_TRUE(owner
                  ->refresh_replicas(*publish_flow, util::seconds(5100),
                                     util::seconds(3600))
                  .is_ok());
  (void)pull_flow;
  probe->set_time(util::seconds(5200));
  raw = probe->call(admin_ep, req.serialize());
  ASSERT_TRUE(raw.is_ok());
  resp = http::parse_response(*raw);
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 200);
}

TEST_F(AuditFixture, OneRoundIsOneTelemetryRpcPerTarget) {
  // A proxy node without a consistency source joins the master and the
  // replica: the audit rides the scrape, so every target costs exactly one
  // telemetry/1 call and nothing else.
  obs::MetricsRegistry proxy_registry;
  obs::TelemetryNode proxy_telemetry(proxy_registry, "proxy-1", "proxy");
  rpc::ServiceDispatcher proxy_dispatcher;
  proxy_telemetry.register_with(proxy_dispatcher);
  net::Endpoint proxy_ep{client_host, 9101};
  net.bind(proxy_ep, proxy_dispatcher.handler());

  obs::TraceCollector collector(16);
  collector.set_policy({/*keep_slower_than=*/0, /*keep_one_in=*/1});
  for (rpc::ServiceDispatcher* dispatcher :
       {&server_dispatcher, &mirror_dispatcher, &proxy_dispatcher}) {
    dispatcher->set_trace_sink(&collector);
  }
  obs::TelemetryAggregator::Config config;
  config.trace_sink = &collector;
  obs::TelemetryAggregator traced(std::move(config));
  traced.add_target({"master", "object-server", server_ep, AuditRole::kMaster});
  traced.add_target(
      {"replica-1", "object-server", mirror_ep, AuditRole::kReplica});
  traced.add_target({"proxy-1", "proxy", proxy_ep});

  traced.scrape_round(*audit_flow);

  auto traces = collector.recent();
  ASSERT_EQ(traces.size(), 1u);
  const obs::StitchedTrace& trace = traces.front();
  EXPECT_EQ(trace.root.name, "telemetry.scrape_round");
  EXPECT_EQ(trace.fragments, 4u);  // the round plus one per target
  for (const char* node : {"master", "replica-1", "proxy-1"}) {
    auto spans = obs::find_all_spans(trace.root, std::string("scrape:") + node);
    ASSERT_EQ(spans.size(), 1u) << node;
    EXPECT_EQ(obs::find_all_spans(*spans[0], "rpc:telemetry/1").size(), 1u)
        << node;
  }
  EXPECT_EQ(obs::find_all_spans(trace.root, "rpc:telemetry/1").size(), 3u);
  EXPECT_TRUE(obs::find_all_spans(trace.root, "rpc:telemetry/2").empty());

  // /replicaz and /federate describe that one round.
  obs::AdminConfig admin_config;
  admin_config.aggregator = &traced;
  obs::AdminHttpServer admin(admin_config);
  net::Endpoint admin_ep{infra_host, 9902};
  net.bind(admin_ep, admin.handler());
  std::string replicaz = http_get(admin_ep, "/replicaz");
  EXPECT_NE(replicaz.find("# replicaz rounds=1 replicas=1 converged=true"),
            std::string::npos)
      << replicaz;
  EXPECT_NE(replicaz.find("replica-1 " + oid().to_hex()), std::string::npos);
  std::string federate = http_get(admin_ep, "/federate");
  for (const char* line :
       {"# node master role=object-server fresh ok=1 failed=0",
        "# node replica-1 role=object-server fresh ok=1 failed=0",
        "# node proxy-1 role=proxy fresh ok=1 failed=0",
        "replication.audit.checks{node=aggregator,replica=replica-1,"
        "role=aggregator,state=fresh} 1",
        "telemetry.scrape_rounds{node=aggregator,role=aggregator} 1"}) {
    EXPECT_NE(federate.find(line), std::string::npos) << line;
  }
}

TEST_F(AuditFixture, StaleVerdictIsWindowedInTheRoundThatSawIt) {
  audit_flow->set_time(util::seconds(10));
  agg->scrape_round(*audit_flow);
  ASSERT_EQ(row_for("replica-1").state, ReplicaConsistency::kFresh);

  // The master re-signs; the replica does not pull.
  publish_flow->set_time(util::seconds(20));
  ASSERT_TRUE(owner
                  ->refresh_replicas(*publish_flow, util::seconds(20),
                                     util::seconds(3600))
                  .is_ok());
  audit_flow->set_time(util::seconds(30));
  agg->scrape_round(*audit_flow);
  ASSERT_EQ(row_for("replica-1").state, ReplicaConsistency::kStale);

  auto stale = agg->windowed_delta_sum("replication.audit.checks",
                                       {{"state", "stale"}}, util::seconds(60));
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(stale->delta, 1.0);
  EXPECT_EQ(stale->seconds, 20.0);
}

TEST_F(AuditFixture, BadReportTrailerRejectsTheWholeReply) {
  // A valid snapshot followed by a report truncated mid-document: the
  // reply stands or falls whole, so the snapshot is dropped as well.
  rpc::ServiceDispatcher bad_dispatcher;
  bad_dispatcher.register_method(
      rpc::kTelemetryService, obs::kScrape,
      [](net::ServerContext&, util::BytesView) {
        obs::MetricsRegistry registry;
        registry.counter("bad.marker").inc(7);
        util::Writer w;
        w.str("bad-1");
        w.str("object-server");
        obs::encode_snapshot(w, registry.snapshot());
        w.u8(obs::kConsistencyVersion);
        w.u32(1);
        w.raw(util::Bytes(5, 0));
        return util::Result<util::Bytes>(w.take());
      });
  net::Endpoint bad_ep{infra_host, 6668};
  net.bind(bad_ep, bad_dispatcher.handler());
  agg->add_target({"bad-1", "object-server", bad_ep, AuditRole::kReplica});

  agg->scrape_round(*audit_flow);

  for (const obs::NodeStatus& node : agg->nodes()) {
    EXPECT_EQ(node.stale, node.node == "bad-1") << node.node;
  }
  std::size_t bad_rows = 0;
  for (const ReplicaRow& row : agg->rows()) {
    if (row.replica != "bad-1") continue;
    ++bad_rows;
    EXPECT_EQ(row.state, ReplicaConsistency::kUnreachable);
  }
  EXPECT_EQ(bad_rows, object_server->consistency_report().docs.size());
  EXPECT_EQ(agg->self_registry()
                .counter("telemetry.scrape_errors", {{"node", "bad-1"}})
                .value(),
            1.0);
  for (const obs::MetricSample& sample : agg->merged().samples) {
    EXPECT_NE(sample.name, "bad.marker");
  }
}

}  // namespace
}  // namespace globe::replication
