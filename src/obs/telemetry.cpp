#include "obs/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <set>
#include <tuple>

#include "obs/collector.hpp"
#include "obs/profile.hpp"

namespace globe::obs {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Reader;
using util::Result;
using util::Writer;

namespace {

// Doubles ride the wire as their IEEE-754 bit pattern in a u64 — exact
// round-trip, no locale/precision surprises.
void put_f64(Writer& w, double v) { w.u64(std::bit_cast<std::uint64_t>(v)); }
double get_f64(Reader& r) { return std::bit_cast<double>(r.u64()); }

std::uint8_t kind_code(MetricSample::Kind kind) {
  switch (kind) {
    case MetricSample::Kind::kCounter: return 0;
    case MetricSample::Kind::kGauge: return 1;
    case MetricSample::Kind::kHistogram: return 2;
  }
  return 0;
}

/// Label pairs the aggregator owns: a scraped node cannot claim to be
/// someone else, so node=/role= on federated samples always come from the
/// aggregator's own target table, replacing whatever the snapshot carried.
void force_label(Labels& labels, const std::string& key,
                 const std::string& value) {
  for (auto& [k, v] : labels) {
    if (k == key) {
      v = value;
      return;
    }
  }
  labels.emplace_back(key, value);
  std::sort(labels.begin(), labels.end());
}

Labels strip_node_labels(const Labels& labels) {
  Labels out;
  out.reserve(labels.size());
  for (const auto& kv : labels) {
    if (kv.first != "node" && kv.first != "role") out.push_back(kv);
  }
  return out;
}

/// Names and label pairs reach /federate text verbatim, so a control
/// byte could forge exposition lines there.
bool printable(const std::string& s) {
  return std::none_of(s.begin(), s.end(), [](char c) {
    auto b = static_cast<unsigned char>(c);
    return b < 0x20 || b == 0x7f;
  });
}

// Staleness is dominated by refresh cadence (seconds), not link latency;
// buckets span one tick to many minutes.
const std::vector<double> kStalenessBoundsMs = {
    100, 500, 1000, 2500, 5000, 10000, 30000, 60000, 300000, 900000};

/// Cluster aggregates, keyed by (name, labels without node/role).
using ClusterView = std::map<std::pair<std::string, Labels>, MetricSample>;

/// Folds one node's sample into its cluster aggregate: counters sum, gauges
/// last-write in node map order, histograms merge bucket-wise.
void add_to_cluster(ClusterView& cluster, const MetricSample& s) {
  std::pair<std::string, Labels> key{s.name, strip_node_labels(s.labels)};
  auto it = cluster.find(key);
  if (it == cluster.end()) {
    MetricSample first = s;
    first.labels = key.second;
    cluster.emplace(std::move(key), std::move(first));
    return;
  }
  MetricSample& into = it->second;
  switch (s.kind) {
    case MetricSample::Kind::kCounter:
      into.value += s.value;
      break;
    case MetricSample::Kind::kGauge:
      into.value = s.value;
      break;
    case MetricSample::Kind::kHistogram:
      // Incompatible bucket layouts refuse to blend; the first node's
      // sample stands alone rather than silently absorbing garbage.
      (void)merge_histogram_sample(into, s);
      break;
  }
}

/// merged()'s `<name><suffix>` gauges from the cluster aggregate of a
/// window delta's `kind` series over `seconds`: a counter's rate, a
/// histogram's p99.
void append_derived(Snapshot& out, const std::vector<MetricSample>& delta,
                    double seconds, MetricSample::Kind kind,
                    const char* suffix) {
  ClusterView cluster;
  for (const MetricSample& s : delta) {
    if (s.kind == kind) add_to_cluster(cluster, s);
  }
  for (const auto& [key, sample] : cluster) {
    MetricSample derived;
    derived.name = sample.name + suffix;
    derived.labels = sample.labels;
    derived.kind = MetricSample::Kind::kGauge;
    derived.value = kind == MetricSample::Kind::kCounter
                        ? sample.value / seconds
                        : sample.p99;
    out.samples.push_back(std::move(derived));
  }
}

}  // namespace

void encode_snapshot(Writer& w, const Snapshot& snapshot) {
  w.u8(kSnapshotVersion);
  w.u32(static_cast<std::uint32_t>(snapshot.samples.size()));
  for (const MetricSample& s : snapshot.samples) {
    w.u8(kind_code(s.kind));
    w.str(s.name);
    w.u8(static_cast<std::uint8_t>(s.labels.size()));
    for (const auto& [key, value] : s.labels) {
      w.str(key);
      w.str(value);
    }
    put_f64(w, s.value);
    if (s.kind != MetricSample::Kind::kHistogram) continue;
    w.u8(static_cast<std::uint8_t>(s.bounds.size()));
    for (double b : s.bounds) put_f64(w, b);
    // bucket_counts.size() == bounds.size() + 1 by construction; the
    // decoder re-derives it rather than trusting a second length field.
    for (std::uint64_t c : s.bucket_counts) w.u64(c);
    if (s.exemplars.empty()) {
      w.u8(0);
    } else {
      w.u8(1);
      for (const Exemplar& e : s.exemplars) {
        w.u64(e.trace_hi);
        w.u64(e.trace_lo);
      }
    }
  }
}

namespace {

/// The decode_snapshot gate proper: one snapshot off the front of `r`,
/// leaving whatever follows it (a consistency report) unread.
Result<Snapshot> read_snapshot(Reader& r) {
  try {
    std::uint8_t version = r.u8();
    if (version != kSnapshotVersion) {
      return Result<Snapshot>(ErrorCode::kProtocol,
                              "unsupported snapshot version " +
                                  std::to_string(version));
    }
    std::uint32_t n = util::checked_count(
        r.u32(), static_cast<std::uint32_t>(kMaxSeries));
    Snapshot snap;
    snap.samples.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      MetricSample s;
      std::uint8_t kind = r.u8();
      switch (kind) {
        case 0: s.kind = MetricSample::Kind::kCounter; break;
        case 1: s.kind = MetricSample::Kind::kGauge; break;
        case 2: s.kind = MetricSample::Kind::kHistogram; break;
        default:
          return Result<Snapshot>(ErrorCode::kProtocol,
                                  "unknown sample kind " +
                                      std::to_string(kind));
      }
      s.name = r.str();
      if (s.name.empty()) {
        return Result<Snapshot>(ErrorCode::kProtocol, "empty metric name");
      }
      if (!printable(s.name)) {
        return Result<Snapshot>(ErrorCode::kProtocol,
                                "control byte in a metric name");
      }
      std::uint8_t labels = r.u8();
      if (labels > kMaxLabels) {
        return Result<Snapshot>(ErrorCode::kProtocol,
                                "sample claims " + std::to_string(labels) +
                                    " labels (cap " +
                                    std::to_string(kMaxLabels) + ")");
      }
      for (std::uint8_t l = 0; l < labels; ++l) {
        std::string key = r.str();
        std::string value = r.str();
        if (!printable(key) || !printable(value)) {
          return Result<Snapshot>(ErrorCode::kProtocol,
                                  "control byte in a label of " + s.name);
        }
        s.labels.emplace_back(std::move(key), std::move(value));
      }
      std::sort(s.labels.begin(), s.labels.end());
      // A repeated key would survive force_label's single rewrite: a
      // second node= would pull this sample into another node's sums.
      if (std::adjacent_find(s.labels.begin(), s.labels.end(),
                             [](const auto& a, const auto& b) {
                               return a.first == b.first;
                             }) != s.labels.end()) {
        return Result<Snapshot>(ErrorCode::kProtocol,
                                "repeated label key in " + s.name);
      }
      s.value = get_f64(r);
      if (!std::isfinite(s.value)) {
        return Result<Snapshot>(ErrorCode::kProtocol,
                                "non-finite value for " + s.name);
      }
      if (s.kind == MetricSample::Kind::kHistogram) {
        std::uint32_t bounds = util::checked_count(
            r.u8(), static_cast<std::uint32_t>(kMaxBuckets - 1));
        s.bounds.reserve(bounds);
        for (std::uint32_t b = 0; b < bounds; ++b) {
          double bound = get_f64(r);
          if (!std::isfinite(bound) ||
              (!s.bounds.empty() && bound <= s.bounds.back())) {
            return Result<Snapshot>(
                ErrorCode::kProtocol,
                "histogram bounds not strictly increasing in " + s.name);
          }
          s.bounds.push_back(bound);
        }
        s.bucket_counts.resize(s.bounds.size() + 1);
        std::uint64_t total = 0;
        for (std::uint64_t& c : s.bucket_counts) {
          c = r.u64();
          if (c > UINT64_MAX - total) {
            return Result<Snapshot>(ErrorCode::kProtocol,
                                    "histogram count overflow in " + s.name);
          }
          total += c;
        }
        // Count and quantiles are DERIVED locally, never trusted: a lying
        // count cannot disagree with the buckets it ships.
        s.count = total;
        s.p50 = bucket_quantile(s.bounds, s.bucket_counts, 0.50);
        s.p90 = bucket_quantile(s.bounds, s.bucket_counts, 0.90);
        s.p99 = bucket_quantile(s.bounds, s.bucket_counts, 0.99);
        if (r.u8() != 0) {
          s.exemplars.resize(s.bucket_counts.size());
          for (Exemplar& e : s.exemplars) {
            e.trace_hi = r.u64();
            e.trace_lo = r.u64();
          }
        }
      }
      snap.samples.push_back(std::move(s));
    }
    return snap;
  } catch (const util::SerialError& e) {
    return Result<Snapshot>(ErrorCode::kProtocol, e.what());
  }
}

}  // namespace

Result<Snapshot> decode_snapshot(BytesView data) {
  Reader r(data);
  Result<Snapshot> snap = read_snapshot(r);
  if (snap.is_ok() && !r.at_end()) {
    return Result<Snapshot>(ErrorCode::kProtocol, "trailing bytes");
  }
  return snap;
}

TelemetryNode::TelemetryNode(MetricsRegistry& registry, std::string node,
                             std::string role, ProfileRegistry* profile)
    : registry_(&registry),
      profile_(profile),
      node_(std::move(node)),
      role_(std::move(role)) {
  registry_->set_default_labels({{"node", node_}, {"role", role_}});
}

void TelemetryNode::register_with(rpc::ServiceDispatcher& dispatcher) {
  MetricsRegistry* registry = registry_;
  ProfileRegistry* profile = profile_;
  std::string node = node_;
  std::string role = role_;
  std::function<ConsistencyReport()> source = consistency_source_;
  dispatcher.register_method(
      rpc::kTelemetryService, kScrape,
      [registry, profile, node, role, source](net::ServerContext&, BytesView) {
        if (profile != nullptr) profile->publish_to(*registry);
        Writer w;
        w.str(node);
        w.str(role);
        encode_snapshot(w, registry->snapshot());
        if (source) encode_consistency(w, source());
        return Result<Bytes>(w.take());
      });
}

TelemetryAggregator::TelemetryAggregator() : TelemetryAggregator(Config()) {}

TelemetryAggregator::TelemetryAggregator(Config config)
    : config_(std::move(config)) {
  self_registry_.set_default_labels({{"node", kNode}, {"role", "aggregator"}});
  scrape_rounds_ = &self_registry_.counter("telemetry.scrape_rounds");
  nodes_fresh_ = &self_registry_.gauge("telemetry.nodes_fresh");
  nodes_stale_ = &self_registry_.gauge("telemetry.nodes_stale");
  alerts_firing_ = &self_registry_.gauge("slo.alerts_firing");
  alerts_pending_ = &self_registry_.gauge("slo.alerts_pending");
}

void TelemetryAggregator::add_target(ScrapeTarget target) {
  if (target.audit == AuditRole::kReplica) {
    // Pre-create every per-state check series at zero: SLO burn windows
    // (windowed_delta_sum) only count series present at the window START,
    // so a stale counter born mid-incident would be invisible to the very
    // alert it exists to fire.
    for (ReplicaConsistency state :
         {ReplicaConsistency::kFresh, ReplicaConsistency::kStale,
          ReplicaConsistency::kDiverged, ReplicaConsistency::kExpired,
          ReplicaConsistency::kMissing, ReplicaConsistency::kUnreachable}) {
      self_registry_.counter("replication.audit.checks",
                             {{"replica", target.node},
                              {"state", replica_consistency_name(state)}});
    }
  }
  util::LockGuard lock(mutex_);
  NodeStatus status;
  status.node = target.node;
  status.role = target.role;
  status_.emplace(target.node, std::move(status));
  targets_.push_back(std::move(target));
}

std::size_t TelemetryAggregator::target_count() const {
  util::LockGuard lock(mutex_);
  return targets_.size();
}

void TelemetryAggregator::scrape_round(net::Transport& transport) {
  std::vector<ScrapeTarget> targets;
  {
    util::LockGuard lock(mutex_);
    targets = targets_;
  }

  Tracer tracer([&transport] { return transport.now(); });
  tracer.set_host(kNode);
  tracer.set_sink(config_.trace_sink != nullptr ? config_.trace_sink
                                                : &global_trace_collector());
  Round round;
  round.time = transport.now();

  struct Outcome {
    bool ok = false;
    std::string error;
    Snapshot snapshot;
    std::optional<ConsistencyReport> report;
  };
  std::vector<Outcome> outcomes(targets.size());
  {
    auto round_span = tracer.span("telemetry.scrape_round");
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const ScrapeTarget& target = targets[i];
      Outcome& out = outcomes[i];
      auto span = tracer.span("scrape:" + target.node);
      rpc::RpcClient client(transport, target.endpoint);
      Result<Bytes> reply =
          client.call(rpc::kTelemetryService, kScrape, BytesView());
      if (!reply.is_ok()) {
        out.error = reply.status().to_string();
        continue;
      }
      try {
        Reader r(*reply);
        std::string node = r.str();
        std::string role = r.str();
        if (node != target.node) {
          // A scraped endpoint answering with someone else's identity is a
          // misconfiguration or an impersonation attempt; either way its
          // data must not be filed under the claimed node.
          out.error = "identity mismatch: target " + target.node +
                      " answered as " + node;
          continue;
        }
        (void)role;  // advisory; the target table's role is authoritative
        Result<Snapshot> snap = read_snapshot(r);
        if (!snap.is_ok()) {
          out.error = snap.status().to_string();
          continue;
        }
        out.snapshot = std::move(*snap);
        if (!r.at_end()) {
          // The node's consistency report: the reply stands or falls whole.
          Result<ConsistencyReport> report = decode_consistency(
              BytesView(*reply).subspan(reply->size() - r.remaining()));
          if (!report.is_ok()) {
            out.error = report.status().to_string();
            continue;
          }
          out.report = std::move(*report);
        }
      } catch (const util::SerialError& e) {
        out.error = std::string("malformed scrape reply: ") + e.what();
        continue;
      }
      if (target.audit != AuditRole::kNone && !out.report.has_value()) {
        out.error = "no consistency report";
        continue;
      }
      for (MetricSample& s : out.snapshot.samples) {
        force_label(s.labels, "node", target.node);
        force_label(s.labels, "role", target.role);
      }
      out.ok = true;
    }
  }

  std::size_t fresh = 0, stale = 0;
  util::LockGuard lock(mutex_);
  std::vector<const ConsistencyReport*> reports(targets.size(), nullptr);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    NodeStatus& status = status_[targets[i].node];
    status.node = targets[i].node;
    status.role = targets[i].role;
    if (outcomes[i].ok) {
      status.stale = false;
      status.scrapes_ok += 1;
      status.last_success = round.time;
      status.last_error.clear();
      round.per_node[targets[i].node] = std::move(outcomes[i].snapshot);
      if (outcomes[i].report.has_value()) reports[i] = &*outcomes[i].report;
      ++fresh;
    } else {
      status.stale = true;
      status.scrapes_failed += 1;
      status.last_error = outcomes[i].error;
      self_registry_
          .counter("telemetry.scrape_errors", {{"node", targets[i].node}})
          .inc();
      ++stale;
    }
  }
  audit_locked(targets, reports, round.time);
  scrape_rounds_->inc();
  nodes_fresh_->set(static_cast<double>(fresh));
  nodes_stale_->set(static_cast<double>(stale));
  // The aggregator's own registry joins the round as one more node (not a
  // target): this round's verdicts and health counters are windowable in
  // this round, and merged() serves them with the fleet's.
  round.per_node[kNode] = self_registry_.snapshot();
  ring_.push_back(std::move(round));
  while (ring_.size() > kMaxRounds) ring_.pop_front();
  round_count_ += 1;
  evaluate_slos_locked();
}

void TelemetryAggregator::audit_locked(
    const std::vector<ScrapeTarget>& targets,
    const std::vector<const ConsistencyReport*>& reports, util::SimTime now) {
  if (std::all_of(targets.begin(), targets.end(), [](const ScrapeTarget& t) {
        return t.audit == AuditRole::kNone;
      })) {
    return;
  }
  auto master = std::find_if(
      targets.begin(), targets.end(),
      [](const ScrapeTarget& t) { return t.audit == AuditRole::kMaster; });
  const ConsistencyReport* authority =
      master == targets.end() ? nullptr : reports[master - targets.begin()];
  // Without the master's report the last-known authoritative view stands:
  // replicas are still classified against it, flagged by the master's
  // scrape error.
  master_reachable_ = authority != nullptr;
  if (authority != nullptr) {
    std::map<Bytes, DocState> next;
    for (const DocConsistency& d : authority->docs) {
      auto it = docs_.find(d.oid);
      util::SimTime since = it != docs_.end() && it->second.epoch == d.epoch
                                ? it->second.epoch_since
                                : now;
      next.emplace(d.oid, DocState{d.epoch, d.digest, since});
    }
    docs_ = std::move(next);
  }

  rows_.clear();
  // Behind-pairs carry their first-behind time across rounds even while
  // the master keeps advancing epochs; recovered pairs drop out here.
  std::map<std::pair<std::string, Bytes>, util::SimTime> next_stale;
  std::size_t stale_count = 0, diverged_count = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i].audit != AuditRole::kReplica) continue;
    const std::string& replica = targets[i].node;
    std::map<Bytes, const DocConsistency*> reported;
    if (reports[i] != nullptr) {
      for (const DocConsistency& d : reports[i]->docs) {
        reported.emplace(d.oid, &d);
      }
    }
    bool any_behind = false, any_diverged = false;
    std::optional<double> min_horizon_s;
    for (const auto& [oid, authoritative] : docs_) {
      ReplicaRow row;
      row.replica = replica;
      row.oid_hex = util::hex_encode(oid);
      row.master_epoch = authoritative.epoch;
      std::pair<std::string, Bytes> stale_key{replica, oid};
      auto since_it = stale_since_.find(stale_key);
      util::SimTime behind_since = since_it != stale_since_.end()
                                       ? since_it->second
                                       : authoritative.epoch_since;
      bool behind = false;
      auto found = reported.find(oid);
      if (reports[i] == nullptr) {
        row.state = ReplicaConsistency::kUnreachable;
        // Keep the behind-marker: an unreachable replica has not caught
        // up, its staleness clock must not reset when it reappears.
        if (since_it != stale_since_.end()) {
          next_stale.emplace(std::move(stale_key), behind_since);
        }
      } else if (found == reported.end()) {
        row.state = ReplicaConsistency::kMissing;
        behind = true;
      } else {
        const DocConsistency& d = *found->second;
        row.epoch = d.epoch;
        row.expiry_horizon_s =
            util::to_seconds(d.earliest_expiry) - util::to_seconds(now);
        min_horizon_s =
            std::min(min_horizon_s.value_or(row.expiry_horizon_s),
                     row.expiry_horizon_s);
        if (d.epoch == authoritative.epoch) {
          row.state = d.digest == authoritative.digest
                          ? ReplicaConsistency::kFresh
                          : ReplicaConsistency::kDiverged;
        } else if (d.epoch > authoritative.epoch) {
          // A replica cannot be fresher than the signing authority:
          // well-formed lie, counted and quarantined as divergence.
          row.state = ReplicaConsistency::kDiverged;
          self_registry_
              .counter("replication.audit.forged", {{"replica", replica}})
              .inc();
        } else {
          row.state = d.earliest_expiry > now ? ReplicaConsistency::kStale
                                              : ReplicaConsistency::kExpired;
          behind = true;
        }
        any_diverged |= row.state == ReplicaConsistency::kDiverged;
      }
      if (behind) {
        row.staleness_ms = util::to_millis(now - behind_since);
        next_stale.emplace(std::move(stale_key), behind_since);
        any_behind = true;
        self_registry_
            .histogram("replication.staleness_ms", kStalenessBoundsMs,
                       {{"replica", replica}})
            .observe(row.staleness_ms);
      }
      self_registry_
          .counter("replication.audit.checks",
                   {{"replica", replica},
                    {"state", replica_consistency_name(row.state)}})
          .inc();
      rows_.push_back(std::move(row));
    }
    if (any_behind) ++stale_count;
    if (any_diverged) ++diverged_count;
    if (min_horizon_s.has_value()) {
      self_registry_
          .gauge("replication.cert_expiry_horizon_s", {{"replica", replica}})
          .set(*min_horizon_s);
    }
  }
  stale_since_ = std::move(next_stale);
  self_registry_.gauge("replication.stale_replicas")
      .set(static_cast<double>(stale_count));
  self_registry_.gauge("replication.diverged_replicas")
      .set(static_cast<double>(diverged_count));
}

Snapshot TelemetryAggregator::merged() const {
  util::LockGuard lock(mutex_);
  Snapshot out;
  if (ring_.empty()) return out;

  // 1. Per-node series: each scraped node's exactly as scraped (node=/role=
  //    enforced above), and the aggregator's own.  2. Cluster aggregates.
  ClusterView cluster;
  for (const auto& [node, snap] : ring_.back().per_node) {
    for (const MetricSample& s : snap.samples) {
      out.samples.push_back(s);
      add_to_cluster(cluster, s);
    }
  }
  for (const auto& [key, sample] : cluster) out.samples.push_back(sample);

  // 3. Derived windowed series from the window deltas.
  if (auto minute = window_delta_locked(util::seconds(60))) {
    append_derived(out, minute->series, minute->seconds,
                   MetricSample::Kind::kCounter, ":rate1m");
  }
  if (auto five = window_delta_locked(util::seconds(300))) {
    append_derived(out, five->series, five->seconds,
                   MetricSample::Kind::kHistogram, ":p99_5m");
  }

  std::sort(out.samples.begin(), out.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name != b.name ? a.name < b.name : a.labels < b.labels;
            });
  return out;
}

std::vector<NodeStatus> TelemetryAggregator::nodes() const {
  util::LockGuard lock(mutex_);
  std::vector<NodeStatus> out;
  out.reserve(status_.size());
  for (const auto& [node, status] : status_) out.push_back(status);
  return out;
}

std::optional<TelemetryAggregator::WindowDelta>
TelemetryAggregator::window_delta_locked(util::SimDuration window) const {
  if (ring_.size() < 2) return std::nullopt;
  const Round& latest = ring_.back();
  util::SimTime cutoff = latest.time >= window ? latest.time - window : 0;
  auto start = std::find_if(ring_.begin(), ring_.end(), [&](const Round& r) {
    return r.time >= cutoff && r.time < latest.time;
  });
  if (start == ring_.end()) return std::nullopt;

  // Index the start edge's counters and histograms by (name, labels); each
  // pairs with at most one latest-round series.
  auto by_series = [](const MetricSample* a, const MetricSample* b) {
    return std::tie(a->name, a->labels) < std::tie(b->name, b->labels);
  };
  std::set<const MetricSample*, decltype(by_series)> then(by_series);
  for (const auto& [node, snap] : start->per_node) {
    for (const MetricSample& s : snap.samples) {
      if (s.kind != MetricSample::Kind::kGauge) then.insert(&s);
    }
  }

  WindowDelta out;
  out.seconds = util::to_seconds(latest.time - start->time);
  for (const auto& [node, snap] : latest.per_node) {
    for (const MetricSample& now : snap.samples) {
      auto found = then.find(&now);
      if (found == then.end()) continue;
      const MetricSample& was = **found;
      then.erase(found);
      if (now.kind != was.kind) continue;
      MetricSample delta;
      delta.name = now.name;
      delta.labels = now.labels;
      delta.kind = now.kind;
      delta.value = now.value - was.value;
      if (now.kind == MetricSample::Kind::kHistogram) {
        if (now.bounds != was.bounds ||
            !std::equal(was.bucket_counts.begin(), was.bucket_counts.end(),
                        now.bucket_counts.begin(), now.bucket_counts.end(),
                        std::less_equal<>())) {
          continue;  // another bucket layout, or a reset across the window
        }
        delta.bounds = now.bounds;
        for (std::size_t i = 0; i < now.bucket_counts.size(); ++i) {
          delta.bucket_counts.push_back(now.bucket_counts[i] -
                                        was.bucket_counts[i]);
          delta.count += delta.bucket_counts.back();
        }
        delta.p50 = bucket_quantile(delta.bounds, delta.bucket_counts, 0.50);
        delta.p90 = bucket_quantile(delta.bounds, delta.bucket_counts, 0.90);
        delta.p99 = bucket_quantile(delta.bounds, delta.bucket_counts, 0.99);
      } else if (delta.value < 0) {
        continue;  // counter reset across the window
      }
      out.series.push_back(std::move(delta));
    }
  }
  return out;
}

std::optional<TelemetryAggregator::WindowedSum>
TelemetryAggregator::windowed_delta_sum(const std::string& name,
                                        const Labels& filter,
                                        util::SimDuration window) const {
  util::LockGuard lock(mutex_);
  std::optional<WindowDelta> delta = window_delta_locked(window);
  if (!delta.has_value()) return std::nullopt;
  WindowedSum out;
  out.seconds = delta->seconds;
  bool matched = false;
  for (const MetricSample& s : delta->series) {
    if (s.name != name || s.kind != MetricSample::Kind::kCounter ||
        !labels_contain(s.labels, filter)) {
      continue;
    }
    out.delta += s.value;
    matched = true;
  }
  if (!matched) return std::nullopt;
  return out;
}

std::optional<MetricSample> TelemetryAggregator::windowed_histogram(
    const std::string& name, const Labels& labels,
    util::SimDuration window) const {
  util::LockGuard lock(mutex_);
  std::optional<WindowDelta> delta = window_delta_locked(window);
  if (!delta.has_value()) return std::nullopt;
  for (MetricSample& s : delta->series) {
    if (s.name == name && s.labels == labels &&
        s.kind == MetricSample::Kind::kHistogram) {
      return std::move(s);
    }
  }
  return std::nullopt;
}

std::vector<Labels> TelemetryAggregator::series_labels(
    const std::string& name) const {
  util::LockGuard lock(mutex_);
  std::vector<Labels> out;
  if (ring_.empty()) return out;
  for (const auto& [node, snap] : ring_.back().per_node) {
    for (const MetricSample& s : snap.samples) {
      if (s.name == name) out.push_back(s.labels);
    }
  }
  return out;
}

std::uint64_t TelemetryAggregator::rounds() const {
  util::LockGuard lock(mutex_);
  return round_count_;
}

util::SimTime TelemetryAggregator::last_round_time() const {
  util::LockGuard lock(mutex_);
  return ring_.empty() ? 0 : ring_.back().time;
}

std::vector<ReplicaRow> TelemetryAggregator::rows() const {
  util::LockGuard lock(mutex_);
  return rows_;
}

bool TelemetryAggregator::converged() const {
  util::LockGuard lock(mutex_);
  if (!master_reachable_ || rows_.empty()) return false;
  return std::all_of(rows_.begin(), rows_.end(), [](const ReplicaRow& row) {
    return row.state == ReplicaConsistency::kFresh;
  });
}

std::size_t TelemetryAggregator::replica_count() const {
  util::LockGuard lock(mutex_);
  return static_cast<std::size_t>(std::count_if(
      targets_.begin(), targets_.end(),
      [](const ScrapeTarget& t) { return t.audit == AuditRole::kReplica; }));
}

std::uint64_t TelemetryAggregator::master_epoch_sum() const {
  util::LockGuard lock(mutex_);
  std::uint64_t sum = 0;
  for (const auto& [oid, state] : docs_) sum += state.epoch;
  return sum;
}

}  // namespace globe::obs
