// SLO burn-rate evaluation in the telemetry aggregator's scrape round:
// availability and latency specs, the pending/firing/resolved state
// machine, and alert JSON.  Rounds alone drive every state change.
#include "obs/slo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "net/simnet.hpp"
#include "obs/telemetry.hpp"
#include "rpc/rpc.hpp"

namespace globe::obs {
namespace {

using util::seconds;

struct SloFixture : ::testing::Test {
  void SetUp() override {
    agg_host = net.add_host({"agg", net::CpuModel{}});
    node_host = net.add_host({"proxy-1", net::CpuModel{}});
    telemetry = std::make_unique<TelemetryNode>(registry, "proxy-1", "proxy");
    telemetry->register_with(dispatcher);
    endpoint = net::Endpoint{node_host, 9100};
    net.bind(endpoint, dispatcher.handler());
    agg.add_target({"proxy-1", "proxy", endpoint});
    flow = net.open_flow(agg_host);
  }

  /// One scrape round at `round_index` * 10 s (1-based).
  void round(int round_index) {
    flow->set_time(util::seconds(10) * static_cast<std::uint64_t>(round_index));
    agg.scrape_round(*flow);
  }

  static AlertStateKind state_of(const std::vector<AlertState>& alerts,
                                 const std::string& slo) {
    for (const AlertState& a : alerts) {
      if (a.slo == slo) return a.state;
    }
    ADD_FAILURE() << "no alert instance for " << slo;
    return AlertStateKind::kResolved;
  }

  net::SimNet net;
  net::HostId agg_host, node_host;
  MetricsRegistry registry;
  std::unique_ptr<TelemetryNode> telemetry;
  rpc::ServiceDispatcher dispatcher;
  net::Endpoint endpoint;
  TelemetryAggregator agg;
  std::unique_ptr<net::SimFlow> flow;
};

TEST_F(SloFixture, SpecValidationRejectsNonsense) {
  registry.counter("proxy.fetches", {{"outcome", "error"}});
  SloSpec bad;
  bad.name = "bad";
  bad.metric = "proxy.fetches";
  bad.good_labels = {{"outcome", "ok"}};
  bad.objective = 1.0;
  EXPECT_THROW(agg.add_slo(bad), std::invalid_argument);
  bad.objective = 0;
  EXPECT_THROW(agg.add_slo(bad), std::invalid_argument);
  bad.objective = 0.99;
  bad.short_window = seconds(120);
  bad.long_window = seconds(60);
  EXPECT_THROW(agg.add_slo(bad), std::invalid_argument);
  bad.short_window = seconds(60);
  bad.long_window = seconds(300);
  EXPECT_NO_THROW(agg.add_slo(bad));

  // Only the accepted spec is evaluated: every fetch fails, so it fires.
  for (int t = 1; t <= 3; ++t) {
    registry.counter("proxy.fetches", {{"outcome", "error"}}).inc(10);
    round(t);
  }
  auto alerts = agg.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].slo, "bad");
  EXPECT_EQ(alerts[0].state, AlertStateKind::kFiring);
}

TEST_F(SloFixture, AvailabilityIncidentFiresAndResolves) {
  auto& ok = registry.counter("proxy.fetches", {{"outcome", "ok"}});
  auto& err = registry.counter("proxy.fetches", {{"outcome", "error"}});

  SloSpec spec;
  spec.name = "proxy-availability";
  spec.type = SloSpec::Type::kAvailability;
  spec.metric = "proxy.fetches";
  spec.good_labels = {{"outcome", "ok"}};
  spec.objective = 0.99;  // burn > 2 means bad fraction > 2%
  spec.short_window = seconds(60);
  spec.long_window = seconds(300);
  spec.burn_threshold = 2.0;
  agg.add_slo(spec);

  // Healthy warmup: a clean series never creates an alert instance.
  int t = 0;
  for (int i = 0; i < 7; ++i) {
    ok.inc(100);
    round(++t);
  }
  EXPECT_TRUE(agg.alerts().empty());

  // Outage: half the fetches fail.  Both windows go hot -> firing.
  for (int i = 0; i < 3; ++i) {
    ok.inc(50);
    err.inc(50);
    round(++t);
  }
  auto alerts = agg.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].state, AlertStateKind::kFiring);
  EXPECT_GT(alerts[0].burn_short, 2.0);
  EXPECT_GT(alerts[0].burn_long, 2.0);
  // The instance names the offending node.
  bool named = false;
  for (const auto& [k, v] : alerts[0].labels) {
    if (k == "node" && v == "proxy-1") named = true;
  }
  EXPECT_TRUE(named);

  // Recovery: clean rounds.  The short window drains first (pending), then
  // the long window, and the instance persists as resolved history.  Each
  // transition is stamped with the time of the round that made it.
  bool saw_pending = false, saw_resolved = false;
  AlertStateKind last = AlertStateKind::kFiring;
  for (int i = 0; i < 40 && !saw_resolved; ++i) {
    ok.inc(100);
    round(++t);
    AlertStateKind before = last;
    last = state_of(agg.alerts(), "proxy-availability");
    if (last != before) {
      EXPECT_EQ(agg.alerts()[0].since,
                util::seconds(10) * static_cast<std::uint64_t>(t));
    }
    if (last == AlertStateKind::kPending) saw_pending = true;
    if (last == AlertStateKind::kResolved) saw_resolved = true;
    // Never back to firing during a clean recovery.
    if (saw_pending) {
      EXPECT_NE(last, AlertStateKind::kFiring);
    }
  }
  EXPECT_TRUE(saw_pending);
  EXPECT_TRUE(saw_resolved);
  ASSERT_EQ(agg.alerts().size(), 1u);  // history retained, not deleted
}

TEST_F(SloFixture, LatencyIncidentNamesTheSlowSeries) {
  auto& fast = registry.histogram("proxy.fetch_ms", {10, 100, 1000},
                                  {{"replica", "r-fast"}});
  auto& slow = registry.histogram("proxy.fetch_ms", {10, 100, 1000},
                                  {{"replica", "r-slow"}});

  SloSpec spec;
  spec.name = "fetch-latency";
  spec.type = SloSpec::Type::kLatency;
  spec.metric = "proxy.fetch_ms";
  spec.threshold_ms = 100;  // on a bucket boundary
  spec.objective = 0.9;     // burn > 2 means > 20% of fetches over threshold
  spec.short_window = seconds(60);
  spec.long_window = seconds(300);
  spec.burn_threshold = 2.0;
  agg.add_slo(spec);

  int t = 0;
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 20; ++j) {
      fast.observe(5);
      slow.observe(5);
    }
    round(++t);
  }
  EXPECT_TRUE(agg.alerts().empty());

  // One replica turns slow; the other stays fast.
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 20; ++j) {
      fast.observe(5);
      slow.observe(500);
    }
    round(++t);
  }
  auto alerts = agg.alerts();
  ASSERT_EQ(alerts.size(), 1u);  // only the slow replica's series alerts
  EXPECT_EQ(alerts[0].state, AlertStateKind::kFiring);
  bool slow_named = false, fast_named = false;
  for (const auto& [k, v] : alerts[0].labels) {
    if (k == "replica" && v == "r-slow") slow_named = true;
    if (k == "replica" && v == "r-fast") fast_named = true;
  }
  EXPECT_TRUE(slow_named);
  EXPECT_FALSE(fast_named);

  // Recovery resolves it.
  AlertStateKind last = AlertStateKind::kFiring;
  for (int i = 0; i < 40 && last != AlertStateKind::kResolved; ++i) {
    for (int j = 0; j < 20; ++j) {
      fast.observe(5);
      slow.observe(5);
    }
    round(++t);
    last = state_of(agg.alerts(), "fetch-latency");
  }
  EXPECT_EQ(last, AlertStateKind::kResolved);
}

TEST_F(SloFixture, LatencyThresholdBetweenBoundsRoundsUp) {
  auto& h = registry.histogram("proxy.fetch_ms", {100, 200},
                               {{"replica", "r1"}});

  SloSpec spec;
  spec.name = "rounded";
  spec.type = SloSpec::Type::kLatency;
  spec.metric = "proxy.fetch_ms";
  spec.threshold_ms = 150;  // strictly between bounds: straddling bucket
  spec.objective = 0.9;     // counts as good
  spec.short_window = seconds(60);
  spec.long_window = seconds(300);
  agg.add_slo(spec);

  // All observations land in the (100, 200] bucket — over 150 in truth, but
  // the histogram cannot tell, so the evaluator must not guess them bad.
  int t = 0;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 20; ++j) h.observe(180);
    round(++t);
  }
  EXPECT_TRUE(agg.alerts().empty());
}

TEST_F(SloFixture, NoTrafficIsNotAnOutage) {
  registry.counter("proxy.fetches", {{"outcome", "ok"}});  // exists, never incs

  SloSpec spec;
  spec.name = "quiet";
  spec.type = SloSpec::Type::kAvailability;
  spec.metric = "proxy.fetches";
  spec.good_labels = {{"outcome", "ok"}};
  agg.add_slo(spec);

  for (int t = 1; t <= 5; ++t) round(t);
  EXPECT_TRUE(agg.alerts().empty());
}

TEST_F(SloFixture, EvaluatorExportsItsOwnSeries) {
  round(1);
  bool saw = false;
  for (const MetricSample& s : agg.self_registry().snapshot().samples) {
    if (s.name == "slo.alerts_firing") {
      saw = true;
      EXPECT_DOUBLE_EQ(s.value, 0);
    }
  }
  EXPECT_TRUE(saw);
}

TEST_F(SloFixture, JsonListsAlertsWithStateAndLabels) {
  auto& ok = registry.counter("proxy.fetches", {{"outcome", "ok"}});
  auto& err = registry.counter("proxy.fetches", {{"outcome", "error"}});

  SloSpec spec;
  spec.name = "proxy-availability";
  spec.type = SloSpec::Type::kAvailability;
  spec.metric = "proxy.fetches";
  spec.good_labels = {{"outcome", "ok"}};
  agg.add_slo(spec);

  int t = 0;
  for (int i = 0; i < 6; ++i) {
    ok.inc(10);
    err.inc(90);
    round(++t);
  }

  std::string json = alerts_to_json(agg.alerts());
  EXPECT_NE(json.find("\"alerts\":["), std::string::npos);
  EXPECT_NE(json.find("\"slo\":\"proxy-availability\""), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"firing\""), std::string::npos);
  EXPECT_NE(json.find("\"node\":\"proxy-1\""), std::string::npos);
  EXPECT_NE(json.find("\"burn_short\":"), std::string::npos);

  EXPECT_EQ(json.find("\n"), std::string::npos);  // single line
}

}  // namespace
}  // namespace globe::obs
