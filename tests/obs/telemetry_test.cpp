// Cluster telemetry plane: snapshot codec, histogram merge properties,
// fleet scraping over SimNet, windowed queries and failure paths.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "net/simnet.hpp"
#include "obs/collector.hpp"
#include "obs/export.hpp"
#include "rpc/rpc.hpp"

namespace globe::obs {
namespace {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Reader;
using util::Writer;
using util::seconds;

Snapshot roundtrip(const Snapshot& in) {
  Writer w;
  encode_snapshot(w, in);
  Bytes wire = w.take();
  auto out = decode_snapshot(wire);
  EXPECT_TRUE(out.is_ok()) << out.status().to_string();
  return out.is_ok() ? *out : Snapshot{};
}

// --- Wire codec --------------------------------------------------------------

TEST(SnapshotCodec, RoundTripsAllKinds) {
  MetricsRegistry reg;
  reg.set_default_labels({{"node", "n1"}, {"role", "proxy"}});
  reg.counter("c", {{"outcome", "ok"}}).inc(7);
  reg.gauge("g").set(-2.5);
  auto& h = reg.histogram("h", {1, 10, 100});
  h.observe(0.5);
  h.observe(50);
  h.observe(5000);

  Snapshot in = reg.snapshot();
  Snapshot out = roundtrip(in);
  ASSERT_EQ(out.samples.size(), in.samples.size());
  for (std::size_t i = 0; i < in.samples.size(); ++i) {
    const MetricSample& a = in.samples[i];
    const MetricSample& b = out.samples[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_DOUBLE_EQ(a.value, b.value);
    EXPECT_EQ(a.bounds, b.bounds);
    EXPECT_EQ(a.bucket_counts, b.bucket_counts);
    EXPECT_EQ(a.count, b.count);
  }
}

TEST(SnapshotCodec, RoundTripsExemplars) {
  Snapshot in;
  MetricSample s;
  s.name = "h";
  s.kind = MetricSample::Kind::kHistogram;
  s.bounds = {1, 2};
  s.bucket_counts = {3, 0, 1};
  s.count = 4;
  s.value = 12.0;
  s.exemplars.resize(3);
  s.exemplars[0] = {0xAB, 0xCD};
  in.samples.push_back(s);

  Snapshot out = roundtrip(in);
  ASSERT_EQ(out.samples.size(), 1u);
  ASSERT_EQ(out.samples[0].exemplars.size(), 3u);
  EXPECT_EQ(out.samples[0].exemplars[0].trace_hi, 0xABu);
  EXPECT_EQ(out.samples[0].exemplars[0].trace_lo, 0xCDu);
  EXPECT_FALSE(out.samples[0].exemplars[1].valid());
}

TEST(SnapshotCodec, CountIsDerivedFromBucketsNotTrusted) {
  // The wire format carries no count field at all — a lying node cannot
  // ship count != sum(buckets).  Decode must re-derive it.
  Snapshot in;
  MetricSample s;
  s.name = "h";
  s.kind = MetricSample::Kind::kHistogram;
  s.bounds = {10};
  s.bucket_counts = {4, 2};
  s.count = 999;  // lie locally; never encoded
  s.value = 1.0;
  in.samples.push_back(s);

  Snapshot out = roundtrip(in);
  ASSERT_EQ(out.samples.size(), 1u);
  EXPECT_EQ(out.samples[0].count, 6u);
}

TEST(SnapshotCodec, RejectsBadVersion) {
  Writer w;
  w.u8(kSnapshotVersion + 1);
  w.u32(0);
  EXPECT_EQ(decode_snapshot(w.take()).code(), ErrorCode::kProtocol);
}

TEST(SnapshotCodec, RejectsOversizedSeriesCount) {
  Writer w;
  w.u8(kSnapshotVersion);
  w.u32(static_cast<std::uint32_t>(kMaxSeries + 1));
  EXPECT_EQ(decode_snapshot(w.take()).code(), ErrorCode::kProtocol);
}

TEST(SnapshotCodec, RejectsEmptyMetricName) {
  Writer w;
  w.u8(kSnapshotVersion);
  w.u32(1);
  w.u8(0);  // counter
  w.str("");
  EXPECT_EQ(decode_snapshot(w.take()).code(), ErrorCode::kProtocol);
}

TEST(SnapshotCodec, RejectsUnknownKind) {
  Writer w;
  w.u8(kSnapshotVersion);
  w.u32(1);
  w.u8(9);
  w.str("c");
  EXPECT_EQ(decode_snapshot(w.take()).code(), ErrorCode::kProtocol);
}

TEST(SnapshotCodec, RejectsOversizedLabelCount) {
  Writer w;
  w.u8(kSnapshotVersion);
  w.u32(1);
  w.u8(0);
  w.str("c");
  w.u8(static_cast<std::uint8_t>(kMaxLabels + 1));
  EXPECT_EQ(decode_snapshot(w.take()).code(), ErrorCode::kProtocol);
}

TEST(SnapshotCodec, RejectsNonFiniteValue) {
  Writer w;
  w.u8(kSnapshotVersion);
  w.u32(1);
  w.u8(1);  // gauge
  w.str("g");
  w.u8(0);
  w.u64(0x7FF0000000000000ULL);  // +inf
  EXPECT_EQ(decode_snapshot(w.take()).code(), ErrorCode::kProtocol);
}

TEST(SnapshotCodec, RejectsNonIncreasingBounds) {
  Snapshot in;
  MetricSample s;
  s.name = "h";
  s.kind = MetricSample::Kind::kHistogram;
  s.bounds = {10, 20};
  s.bucket_counts = {0, 0, 0};
  in.samples.push_back(s);
  Writer w;
  encode_snapshot(w, in);
  Bytes wire = w.take();
  // Locate the second bound (20.0) and lower it below the first.
  // Layout: version(1) count(4) kind(1) len(4)+"h"(1) labels(1) value(8)
  // nbounds(1) bound0(8) bound1(8)...
  std::size_t bound1_off = 1 + 4 + 1 + 4 + 1 + 1 + 8 + 1 + 8;
  ASSERT_LE(bound1_off + 8, wire.size());
  Writer patch;
  patch.u64(std::bit_cast<std::uint64_t>(5.0));
  Bytes p = patch.take();
  std::copy(p.begin(), p.end(), wire.begin() + static_cast<long>(bound1_off));
  EXPECT_EQ(decode_snapshot(wire).code(), ErrorCode::kProtocol);
}

TEST(SnapshotCodec, RejectsTruncationAndTrailingBytes) {
  MetricsRegistry reg;
  reg.counter("c").inc();
  Writer w;
  encode_snapshot(w, reg.snapshot());
  Bytes wire = w.take();

  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_EQ(decode_snapshot(truncated).code(), ErrorCode::kProtocol);

  Bytes padded = wire;
  padded.push_back(0);
  EXPECT_EQ(decode_snapshot(padded).code(), ErrorCode::kProtocol);
}

// --- Histogram merge properties (satellite: property test) ------------------

MetricSample histogram_sample(MetricsRegistry& reg, const std::string& name) {
  for (MetricSample& s : reg.snapshot().samples) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "no sample " << name;
  return MetricSample{};
}

TEST(HistogramMerge, PreservesCountSumBucketsAndBracketsQuantiles) {
  std::mt19937 rng(20260806);
  // The PR 9 latency layout: sub-ms buckets below the 1…100 ms decades, so
  // cache-hit populations (tens of microseconds) land in real buckets and
  // the property holds across the full range, not just whole milliseconds.
  const std::vector<double> bounds = {0.05, 0.1, 0.2, 0.5,
                                      1,    2,   5,   10, 20, 50, 100};
  for (int iter = 0; iter < 50; ++iter) {
    MetricsRegistry ra, rb;
    auto& ha = ra.histogram("h", bounds);
    auto& hb = rb.histogram("h", bounds);
    std::uniform_int_distribution<int> n_obs(1, 200);
    std::uniform_real_distribution<double> value(0.0, 150.0);
    // Bimodal population, like a cache in front of a WAN: most
    // observations are sub-ms hits, the rest spread across the decades.
    std::uniform_real_distribution<double> hit(0.0, 0.8);
    std::bernoulli_distribution is_hit(0.6);
    auto observe = [&](auto& h) {
      h.observe(is_hit(rng) ? hit(rng) : value(rng));
    };
    int na = n_obs(rng), nb = n_obs(rng);
    for (int i = 0; i < na; ++i) observe(ha);
    for (int i = 0; i < nb; ++i) observe(hb);

    MetricSample a = histogram_sample(ra, "h");
    MetricSample b = histogram_sample(rb, "h");
    MetricSample merged = a;
    ASSERT_TRUE(merge_histogram_sample(merged, b));

    // Count and sum are exactly additive.
    EXPECT_EQ(merged.count, a.count + b.count);
    EXPECT_NEAR(merged.value, a.value + b.value, 1e-9);
    ASSERT_EQ(merged.bucket_counts.size(), a.bucket_counts.size());
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < merged.bucket_counts.size(); ++i) {
      EXPECT_EQ(merged.bucket_counts[i],
                a.bucket_counts[i] + b.bucket_counts[i]);
      total += merged.bucket_counts[i];
    }
    EXPECT_EQ(total, merged.count);

    // A merged quantile lies within [min, max] of the inputs' quantiles,
    // at bucket granularity: blending two populations cannot move a
    // quantile outside either input's range.  The comparison widens each
    // input estimate to its bucket's edges because the estimator
    // interpolates linearly INSIDE the chosen bucket — exact bucket,
    // approximate position — so point estimates can differ by sub-bucket
    // amounts even for the true bracketing order.
    auto bucket_edges = [&](double v) {
      double lo = 0, hi = bounds.back();
      for (double bound : bounds) {
        if (v <= bound) {
          hi = bound;
          break;
        }
        lo = bound;
      }
      return std::pair<double, double>{lo, hi};
    };
    struct Q {
      double MetricSample::*field;
      double q;
    };
    const Q qs[] = {{&MetricSample::p50, 0.50},
                    {&MetricSample::p90, 0.90},
                    {&MetricSample::p99, 0.99}};
    for (const Q& q : qs) {
      double qa = a.*(q.field), qb = b.*(q.field), qm = merged.*(q.field);
      EXPECT_GE(qm, bucket_edges(std::min(qa, qb)).first - 1e-9) << "q=" << q.q;
      EXPECT_LE(qm, bucket_edges(std::max(qa, qb)).second + 1e-9)
          << "q=" << q.q;
    }
  }
}

TEST(HistogramMerge, RefusesMismatchedBucketLayouts) {
  MetricsRegistry ra, rb;
  ra.histogram("h", {1, 2}).observe(1.5);
  rb.histogram("h", {1, 3}).observe(1.5);
  MetricSample a = histogram_sample(ra, "h");
  MetricSample b = histogram_sample(rb, "h");
  MetricSample before = a;
  EXPECT_FALSE(merge_histogram_sample(a, b));
  EXPECT_EQ(a.bucket_counts, before.bucket_counts);
  EXPECT_EQ(a.count, before.count);

  MetricSample counter;
  counter.kind = MetricSample::Kind::kCounter;
  EXPECT_FALSE(merge_histogram_sample(a, counter));
}

// --- Fleet scraping over SimNet ---------------------------------------------

struct FleetFixture : ::testing::Test {
  struct Node {
    MetricsRegistry registry;
    std::unique_ptr<TelemetryNode> telemetry;
    rpc::ServiceDispatcher dispatcher;
    net::HostId host;
    net::Endpoint endpoint;
  };

  void add_node(Node& node, const std::string& name, const std::string& role) {
    node.host = net.add_host({name, net::CpuModel{}});
    node.telemetry = std::make_unique<TelemetryNode>(node.registry, name, role);
    node.telemetry->register_with(node.dispatcher);
    node.endpoint = net::Endpoint{node.host, 9100};
    net.bind(node.endpoint, node.dispatcher.handler());
    agg.add_target({name, role, node.endpoint});
  }

  /// A node answering the scrape with whatever `build` makes, under its
  /// own (matching) identity, so only the decode gate stands in its way.
  void add_hostile(const std::string& name, std::function<Snapshot()> build) {
    hostile.push_back(std::make_unique<Node>());
    Node& node = *hostile.back();
    node.host = net.add_host({name, net::CpuModel{}});
    node.dispatcher.register_method(
        rpc::kTelemetryService, kScrape,
        [name, build](net::ServerContext&, BytesView) -> util::Result<Bytes> {
          Writer w;
          w.str(name);
          w.str("object-server");
          encode_snapshot(w, build());
          return w.take();
        });
    node.endpoint = net::Endpoint{node.host, 9100};
    net.bind(node.endpoint, node.dispatcher.handler());
    agg.add_target({name, "object-server", node.endpoint});
  }

  std::optional<NodeStatus> status_of(const std::string& name) {
    for (const NodeStatus& n : agg.nodes()) {
      if (n.node == name) return n;
    }
    return std::nullopt;
  }

  void SetUp() override {
    agg_host = net.add_host({"agg", net::CpuModel{}});
    add_node(a, "os-1", "object-server");
    add_node(b, "os-2", "object-server");
    flow = net.open_flow(agg_host);
  }

  const MetricSample* find(const Snapshot& snap, const std::string& name,
                           const Labels& labels) {
    for (const MetricSample& s : snap.samples) {
      if (s.name == name && s.labels == labels) return &s;
    }
    return nullptr;
  }

  net::SimNet net;
  net::HostId agg_host;
  Node a, b;
  std::vector<std::unique_ptr<Node>> hostile;
  TelemetryAggregator agg;
  std::unique_ptr<net::SimFlow> flow;
};

TEST_F(FleetFixture, MergedViewCarriesPerNodeAndClusterSeries) {
  a.registry.counter("object_server.requests").inc(3);
  b.registry.counter("object_server.requests").inc(5);
  a.registry.histogram("serve_ms", {1, 10, 100}).observe(4);
  b.registry.histogram("serve_ms", {1, 10, 100}).observe(40);
  b.registry.histogram("serve_ms", {1, 10, 100}).observe(400);

  agg.scrape_round(*flow);
  Snapshot merged = agg.merged();

  // Per-node series with aggregator-enforced node/role labels.
  const MetricSample* ca = find(merged, "object_server.requests",
                                {{"node", "os-1"}, {"role", "object-server"}});
  const MetricSample* cb = find(merged, "object_server.requests",
                                {{"node", "os-2"}, {"role", "object-server"}});
  ASSERT_NE(ca, nullptr);
  ASSERT_NE(cb, nullptr);
  EXPECT_DOUBLE_EQ(ca->value, 3);
  EXPECT_DOUBLE_EQ(cb->value, 5);

  // Cluster aggregate: labels stripped, counter summed.
  const MetricSample* cluster = find(merged, "object_server.requests", {});
  ASSERT_NE(cluster, nullptr);
  EXPECT_DOUBLE_EQ(cluster->value, 8);

  // Cluster histogram: bucket-wise merge; count equals per-node total.
  const MetricSample* h = find(merged, "serve_ms", {});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
  EXPECT_DOUBLE_EQ(h->value, 444);

  // The aggregator's own health series ride along.
  bool saw_rounds = false;
  for (const MetricSample& s : merged.samples) {
    if (s.name == "telemetry.scrape_rounds") saw_rounds = true;
  }
  EXPECT_TRUE(saw_rounds);

  for (const NodeStatus& n : agg.nodes()) {
    EXPECT_FALSE(n.stale) << n.node;
    EXPECT_EQ(n.scrapes_ok, 1u);
  }
}

TEST_F(FleetFixture, MergedLabelSetsMatchFleet) {
  a.registry.counter("x").inc();
  b.registry.counter("x").inc();
  agg.scrape_round(*flow);

  for (const MetricSample& s : agg.merged().samples) {
    std::string node;
    for (const auto& [k, v] : s.labels) {
      if (k == "node") node = v;
    }
    // Every labeled series names a real fleet member (or the aggregator);
    // unlabeled series are cluster aggregates.
    if (!node.empty()) {
      EXPECT_TRUE(node == "os-1" || node == "os-2" || node == "aggregator")
          << s.name << " claims node=" << node;
    }
  }
}

TEST_F(FleetFixture, WindowedRateSumAndQuantiles) {
  const Labels la = {{"node", "os-1"}, {"role", "object-server"}};
  auto& ok = a.registry.counter("req", {{"outcome", "ok"}});
  auto& err = a.registry.counter("req", {{"outcome", "error"}});
  auto& h = a.registry.histogram("lat_ms", {1, 10, 100});

  // Rounds 10 s apart; each adds 40 ok, 10 error, 50 fast observations.
  for (int round = 0; round < 6; ++round) {
    ok.inc(40);
    err.inc(10);
    for (int i = 0; i < 50; ++i) h.observe(5);
    flow->set_time(util::seconds(10) * static_cast<std::uint64_t>(round + 1));
    agg.scrape_round(*flow);
  }

  // One series by its exact labels: 5 deltas of 40 over 50 s.
  Labels ok_labels = la;
  ok_labels.emplace_back("outcome", "ok");
  std::sort(ok_labels.begin(), ok_labels.end());
  auto ok_sum = agg.windowed_delta_sum("req", ok_labels, seconds(60));
  ASSERT_TRUE(ok_sum.has_value());
  EXPECT_NEAR(ok_sum->delta / ok_sum->seconds, 200.0 / 50.0, 1e-9);

  // windowed_delta_sum: subset filter sums both outcomes.
  auto sum = agg.windowed_delta_sum("req", la, seconds(60));
  ASSERT_TRUE(sum.has_value());
  EXPECT_NEAR(sum->delta, 250.0, 1e-9);
  EXPECT_NEAR(sum->seconds, 50.0, 1e-9);

  // windowed_histogram: only in-window observations count.
  Labels hl = la;
  auto wh = agg.windowed_histogram("lat_ms", hl, seconds(30));
  ASSERT_TRUE(wh.has_value());
  // Window edge lands on the round at t=30; delta to t=60 is 3 rounds of 50.
  EXPECT_EQ(wh->count, 150u);
  EXPECT_LE(wh->p99, 10.0);

  // Too little history: a 5 s window has no earlier round inside it.
  EXPECT_FALSE(agg.windowed_delta_sum("req", ok_labels, seconds(5)).has_value());
  // Unknown series.
  EXPECT_FALSE(
      agg.windowed_delta_sum("nope", ok_labels, seconds(60)).has_value());
}

TEST_F(FleetFixture, CounterResetYieldsNoRate) {
  auto& c = a.registry.counter("req");
  const Labels la = {{"node", "os-1"}, {"role", "object-server"}};
  c.inc(100);
  flow->set_time(util::seconds(10));
  agg.scrape_round(*flow);
  a.registry.reset();  // counter drops to 0: a restart
  flow->set_time(util::seconds(20));
  agg.scrape_round(*flow);
  EXPECT_FALSE(agg.windowed_delta_sum("req", la, seconds(60)).has_value());
}

TEST_F(FleetFixture, RingIsBounded) {
  constexpr std::uint64_t kRounds = TelemetryAggregator::kMaxRounds + 2;
  for (std::uint64_t round = 1; round <= kRounds; ++round) {
    a.registry.counter("req").inc();
    flow->set_time(util::seconds(10) * round);
    agg.scrape_round(*flow);
  }
  EXPECT_EQ(agg.rounds(), kRounds);
  EXPECT_EQ(agg.last_round_time(), util::seconds(10) * kRounds);
  // A 10-hour window reaches back only to the oldest retained round.
  auto sum = agg.windowed_delta_sum(
      "req", {{"node", "os-1"}, {"role", "object-server"}}, seconds(36000));
  ASSERT_TRUE(sum.has_value());
  EXPECT_EQ(sum->seconds, 10.0 * (TelemetryAggregator::kMaxRounds - 1));
  EXPECT_EQ(sum->delta, TelemetryAggregator::kMaxRounds - 1.0);
  // A series that never existed stays absent regardless of window size.
  EXPECT_FALSE(agg.windowed_delta_sum("telemetry_noop", {{"node", "os-1"}},
                                      seconds(36000))
                   .has_value());
}

TEST_F(FleetFixture, TargetAddedMidRingContributesOnlyItsInWindowDelta) {
  // Every server serves 10 requests per 10 s round from t=10 s; os-3 joins
  // the scrape at t=30 s with 1000 more on its lifetime counter.
  Node c;
  c.registry.counter("object_server.requests").inc(1000);
  for (std::uint64_t round = 1; round <= 4; ++round) {
    if (round == 3) add_node(c, "os-3", "object-server");
    for (Node* node : {&a, &b, &c}) {
      node->registry.counter("object_server.requests").inc(10);
    }
    flow->set_time(util::seconds(10) * round);
    agg.scrape_round(*flow);
  }
  // The 60 s window starts at t=10 s, before os-3 was scraped: its series
  // is born inside the window and has no delta, so the cluster rate is the
  // other two servers' 60 requests over 30 s, not os-3's lifetime.
  Snapshot merged = agg.merged();
  const MetricSample* rate =
      find(merged, "object_server.requests:rate1m", {});
  ASSERT_NE(rate, nullptr);
  EXPECT_DOUBLE_EQ(rate->value, 2.0);
  auto minute =
      agg.windowed_delta_sum("object_server.requests", {}, seconds(60));
  ASSERT_TRUE(minute.has_value());
  EXPECT_EQ(minute->delta, 60.0);
  // A 10 s window starts at t=30 s, once os-3 is scraped: its in-window
  // round of 10 requests counts beside the others'.
  auto last =
      agg.windowed_delta_sum("object_server.requests", {}, seconds(10));
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->delta, 30.0);
  EXPECT_EQ(last->seconds, 10.0);
}

// --- Failure paths: a bad node can deny its own data, never poison -----------

TEST_F(FleetFixture, DeadTargetGoesStaleWithoutPoisoningMergedView) {
  net::HostId ghost = net.add_host({"ghost", net::CpuModel{}});
  agg.add_target({"ghost-1", "object-server", net::Endpoint{ghost, 9100}});
  a.registry.counter("x").inc(2);
  b.registry.counter("x").inc(3);

  agg.scrape_round(*flow);

  Snapshot merged = agg.merged();
  const MetricSample* cluster = find(merged, "x", {});
  ASSERT_NE(cluster, nullptr);
  EXPECT_DOUBLE_EQ(cluster->value, 5);  // healthy nodes only

  bool saw_ghost = false;
  for (const NodeStatus& n : agg.nodes()) {
    if (n.node != "ghost-1") {
      EXPECT_FALSE(n.stale);
      continue;
    }
    saw_ghost = true;
    EXPECT_TRUE(n.stale);
    EXPECT_EQ(n.scrapes_failed, 1u);
    EXPECT_FALSE(n.last_error.empty());
  }
  EXPECT_TRUE(saw_ghost);

  // telemetry.scrape_errors names the failing node.
  const MetricSample* errors =
      find(merged, "telemetry.scrape_errors",
           {{"node", "ghost-1"}, {"role", "aggregator"}});
  ASSERT_NE(errors, nullptr);
  EXPECT_DOUBLE_EQ(errors->value, 1);
}

TEST_F(FleetFixture, MalformedSnapshotGoesStale) {
  net::HostId evil = net.add_host({"evil", net::CpuModel{}});
  net::Endpoint ep{evil, 9100};
  rpc::ServiceDispatcher dispatcher;
  dispatcher.register_method(
      rpc::kTelemetryService, kScrape,
      [](net::ServerContext&, BytesView) -> util::Result<Bytes> {
        return Bytes{1, 2, 3};  // not even a framed node string
      });
  net.bind(ep, dispatcher.handler());
  agg.add_target({"evil-1", "object-server", ep});
  a.registry.counter("x").inc();

  agg.scrape_round(*flow);

  for (const NodeStatus& n : agg.nodes()) {
    if (n.node == "evil-1") {
      EXPECT_TRUE(n.stale);
      EXPECT_FALSE(n.last_error.empty());
    }
  }
  // Healthy data still merged.
  EXPECT_NE(find(agg.merged(), "x",
                 {{"node", "os-1"}, {"role", "object-server"}}),
            nullptr);
}

TEST_F(FleetFixture, OversizedSnapshotIsRejectedAtDecode) {
  net::HostId evil = net.add_host({"evil", net::CpuModel{}});
  net::Endpoint ep{evil, 9100};
  rpc::ServiceDispatcher dispatcher;
  dispatcher.register_method(
      rpc::kTelemetryService, kScrape,
      [](net::ServerContext&, BytesView) -> util::Result<Bytes> {
        Writer w;
        w.str("evil-1");
        w.str("object-server");
        w.u8(kSnapshotVersion);
        w.u32(1u << 30);  // claims a billion series
        return w.take();
      });
  net.bind(ep, dispatcher.handler());
  agg.add_target({"evil-1", "object-server", ep});

  agg.scrape_round(*flow);

  for (const NodeStatus& n : agg.nodes()) {
    if (n.node == "evil-1") {
      EXPECT_TRUE(n.stale);
      // util::checked_count rejects the forged series count at the ceiling.
      EXPECT_NE(n.last_error.find("ceiling"), std::string::npos) << n.last_error;
    }
  }
}

TEST_F(FleetFixture, IdentityMismatchIsRejected) {
  // A node registered under one name answering with another is filed as a
  // failure, not under either name.
  net::HostId mallory = net.add_host({"mallory", net::CpuModel{}});
  net::Endpoint ep{mallory, 9100};
  MetricsRegistry reg;
  reg.counter("stolen").inc(42);
  TelemetryNode node(reg, "os-1", "object-server");  // claims os-1's identity
  rpc::ServiceDispatcher dispatcher;
  node.register_with(dispatcher);
  net.bind(ep, dispatcher.handler());
  agg.add_target({"mallory-1", "object-server", ep});

  agg.scrape_round(*flow);

  for (const NodeStatus& n : agg.nodes()) {
    if (n.node == "mallory-1") {
      EXPECT_TRUE(n.stale);
      EXPECT_NE(n.last_error.find("identity mismatch"), std::string::npos)
          << n.last_error;
    }
  }
  EXPECT_EQ(find(agg.merged(), "stolen",
                 {{"node", "mallory-1"}, {"role", "object-server"}}),
            nullptr);
}

TEST_F(FleetFixture, ReplyWithoutConsistencySourceIsNodeRoleSnapshot) {
  // Only a node with a consistency source appends a report; every other
  // node's scrape reply keeps the snapshot-only wire shape.
  a.registry.counter("x").inc(3);
  rpc::RpcClient client(*flow, a.endpoint);
  auto reply = client.call(rpc::kTelemetryService, kScrape, BytesView());
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  Writer w;
  w.str("os-1");
  w.str("object-server");
  encode_snapshot(w, a.registry.snapshot());
  EXPECT_EQ(*reply, w.take());
}

TEST_F(FleetFixture, RepeatedLabelKeyIsRejectedAtDecode) {
  // force_label rewrites only the first node=, so a second node=os-1 would
  // survive and windowed_delta_sum's subset match would add this node's
  // errors to os-1's SLO instance.
  auto errors = std::make_shared<double>(0);
  add_hostile("evil-1", [errors] {
    MetricSample s;
    s.name = "req";
    s.kind = MetricSample::Kind::kCounter;
    s.labels = {{"node", "evil-1"}, {"node", "os-1"}, {"outcome", "error"}};
    s.value = (*errors += 50);
    Snapshot snap;
    snap.samples.push_back(s);
    return snap;
  });
  a.registry.counter("req", {{"outcome", "ok"}}).inc();

  for (std::uint64_t round = 1; round <= 2; ++round) {
    flow->set_time(util::seconds(10) * round);
    agg.scrape_round(*flow);
  }

  std::optional<NodeStatus> evil = status_of("evil-1");
  ASSERT_TRUE(evil.has_value());
  EXPECT_TRUE(evil->stale);
  EXPECT_NE(evil->last_error.find("repeated label key"), std::string::npos)
      << evil->last_error;
  // os-1 served no errors; nothing may count any toward it.
  EXPECT_FALSE(agg.windowed_delta_sum("req",
                                      {{"node", "os-1"}, {"outcome", "error"}},
                                      seconds(60))
                   .has_value());
}

TEST_F(FleetFixture, ControlBytesAreRejectedAtDecode) {
  // A newline in a metric name would forge a node-health line in the
  // /federate text; a control byte in a label is the same hole.
  add_hostile("evil-1", [] {
    MetricSample s;
    s.name = "x 1\n# node os-2 role=object-server fresh ok=9 failed=0\ny";
    Snapshot snap;
    snap.samples.push_back(s);
    return snap;
  });
  add_hostile("evil-2", [] {
    MetricSample s;
    s.name = "y";
    s.labels = {{"note", "a\x7f"}};
    Snapshot snap;
    snap.samples.push_back(s);
    return snap;
  });
  a.registry.counter("x").inc();

  agg.scrape_round(*flow);

  for (const char* name : {"evil-1", "evil-2"}) {
    std::optional<NodeStatus> evil = status_of(name);
    ASSERT_TRUE(evil.has_value()) << name;
    EXPECT_TRUE(evil->stale) << name;
    EXPECT_NE(evil->last_error.find("control byte"), std::string::npos)
        << evil->last_error;
  }
  std::string text = to_text(agg.merged());
  EXPECT_EQ(text.find("# node os-2 role=object-server fresh ok=9"),
            std::string::npos);
  EXPECT_EQ(text.find("note="), std::string::npos);
}

TEST_F(FleetFixture, LinkDownMarksStaleThenRecovers) {
  a.registry.counter("x").inc();

  agg.scrape_round(*flow);
  for (const NodeStatus& n : agg.nodes()) EXPECT_FALSE(n.stale);

  net.set_link_down(agg_host, a.host, true);
  flow->advance(util::seconds(10));
  agg.scrape_round(*flow);
  for (const NodeStatus& n : agg.nodes()) {
    if (n.node == "os-1") {
      EXPECT_TRUE(n.stale);
      EXPECT_EQ(n.scrapes_failed, 1u);
    } else {
      EXPECT_FALSE(n.stale);
    }
  }

  net.set_link_down(agg_host, a.host, false);
  flow->advance(util::seconds(10));
  agg.scrape_round(*flow);
  for (const NodeStatus& n : agg.nodes()) {
    EXPECT_FALSE(n.stale) << n.node;
    if (n.node == "os-1") EXPECT_EQ(n.scrapes_ok, 2u);
  }
}

TEST_F(FleetFixture, ScrapeRoundsAreTraced) {
  TraceCollector collector(16);
  collector.set_policy({/*keep_slower_than=*/0, /*keep_one_in=*/1});
  TelemetryAggregator::Config config;
  config.trace_sink = &collector;
  TelemetryAggregator traced(std::move(config));
  traced.add_target({"os-1", "object-server", a.endpoint});
  a.dispatcher.set_trace_sink(&collector);

  traced.scrape_round(*flow);

  auto traces = collector.recent();
  ASSERT_FALSE(traces.empty());
  const StitchedTrace& t = traces.front();
  EXPECT_EQ(t.root.name, "telemetry.scrape_round");
  EXPECT_NE(find_span(t.root, "scrape:os-1"), nullptr);
  // The server-side rpc:telemetry span stitched in as a remote fragment.
  EXPECT_GE(t.fragments, 2u);
  EXPECT_NE(find_span(t.root, "rpc:telemetry/1"), nullptr);
}

TEST(TelemetryAggregatorEdge, EmptyAggregatorAnswersCleanly) {
  TelemetryAggregator agg;
  EXPECT_EQ(agg.target_count(), 0u);
  EXPECT_TRUE(agg.merged().samples.empty());
  EXPECT_TRUE(agg.nodes().empty());
  EXPECT_FALSE(agg.windowed_delta_sum("x", {}, seconds(60)).has_value());
  EXPECT_FALSE(agg.windowed_histogram("x", {}, seconds(60)).has_value());
  EXPECT_TRUE(agg.series_labels("x").empty());
  EXPECT_EQ(agg.rounds(), 0u);
}


TEST(SnapshotCodec, RejectsOversizedBucketCount) {
  // Histogram bounds count is capped at kMaxBuckets - 1; a sample claiming
  // the full u8 range is rejected before bounds.reserve().
  Writer w;
  w.u8(kSnapshotVersion);
  w.u32(1);
  w.u8(2);  // histogram
  w.str("h");
  w.u8(0);  // labels
  w.u64(0x4000000000000000ULL);  // value 2.0
  w.u8(static_cast<std::uint8_t>(kMaxBuckets));  // one past the bounds cap
  EXPECT_EQ(decode_snapshot(w.take()).code(), ErrorCode::kProtocol);
}
}  // namespace
}  // namespace globe::obs
