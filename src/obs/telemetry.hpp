// Cluster telemetry plane (DESIGN.md §11): per-node registry federation,
// the fleet consistency audit (DESIGN.md §16) and SLO burn-rate alerting
// (obs/slo.hpp) in one poller.
//
// Every fleet role (proxy, object server, static server, naming node,
// location node, replication coordinator) owns a MetricsRegistry tagged
// with node=/role= labels.  A TelemetryNode exposes that registry over the
// ordinary RPC layer as `telemetry/scrape` — the snapshot rides the same
// wire framing as every GlobeDoc protocol, so a scrape crosses SimNet links
// (and pays their latency) exactly like a fetch does, and carries the
// caller's trace header so scrape rounds are themselves visible in /tracez.
// A node with a consistency source (an object server) appends its
// per-document report (obs/consistency.hpp) after the snapshot.
//
// A central TelemetryAggregator polls the fleet:
//   * one scrape round = one traced RPC per target, each reply accepted or
//     rejected whole, each decoded snapshot stamped with the target's
//     node/role labels;
//   * snapshots merge across nodes (counter sums, gauge last-write,
//     histogram bucket-wise merge via obs::merge_histogram_sample);
//   * every round is retained in a bounded ring of timestamped windows,
//     and the aggregator is the ring's only reader: every windowed number
//     — rates, windowed quantiles, SLO burn rates — comes from one window
//     delta (the per-series increments between the latest round and the
//     oldest round inside the window);
//   * the round ends with the consistency audit: the master target's
//     report is the authority and every (replica target, OID) pair gets a
//     verdict on the aggregator's own registry, which joins the round as
//     one more node so the verdicts are windowable in the round that saw
//     them; then every installed SLO is evaluated against the new ring;
//   * a target that times out, is unreachable, or returns a malformed
//     reply is marked stale — its data simply drops out of the merged
//     view until it answers again (telemetry.scrape_errors counts each
//     failure) — a flaky untrusted replica can deny its own telemetry, but
//     never poison the fleet's.
//
// Security note: a scraped reply crossed the wire from a possibly
// malicious node (DESIGN.md §9).  decode_snapshot() and
// decode_consistency() are the sanitizing gates: strict bounds-checked
// parsing, hard caps on series/bucket/document counts, printable names
// with unique label keys, and bucket-layout validation — beyond them the
// data can still *lie* about that node's numbers (untrusted replicas
// always could), but it cannot corrupt the aggregator or other nodes'
// series.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/transport.hpp"
#include "obs/consistency.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "rpc/rpc.hpp"
#include "util/mutex.hpp"
#include "util/bounds_annotations.hpp"
#include "util/taint_annotations.hpp"
#include "util/thread_annotations.hpp"

namespace globe::obs {

class ProfileRegistry;  // obs/profile.hpp

/// RPC method ids under rpc::kTelemetryService.
enum TelemetryMethod : std::uint16_t {
  kScrape = 1,  // {} -> node, role, snapshot[, consistency report]
};

/// Wire codec for a registry snapshot (u8 version, then the sample list).
/// Caps: at most kMaxSeries samples, kMaxBuckets buckets per histogram —
/// a hostile node cannot balloon the aggregator's memory.
inline constexpr std::uint8_t kSnapshotVersion = 1;
inline constexpr std::size_t kMaxSeries = 4096;
inline constexpr std::size_t kMaxBuckets = 64;
inline constexpr std::size_t kMaxLabels = 16;

void encode_snapshot(util::Writer& w, const Snapshot& snapshot);
/// Sanitizer: the only path wire bytes take into Snapshot values.  Rejects
/// truncation, unknown versions, oversized series/label/bucket counts,
/// control bytes (below 0x20, 0x7f) in names and labels, repeated label
/// keys and non-increasing bucket bounds with kProtocol.
GLOBE_SANITIZER util::Result<Snapshot> decode_snapshot(
    GLOBE_UNTRUSTED util::BytesView data);

/// Serves one node's registry as `telemetry/scrape`.  Construction tags the
/// registry with node=/role= default labels, so locally exported text
/// (/metrics) and federated snapshots carry identical label sets.
class TelemetryNode {
 public:
  /// `profile`, when set, is folded into `registry` as profile.* counters
  /// right before every scrape reply, so the fleet view carries this node's
  /// crypto/serving cost attribution (DESIGN.md §15) without a separate
  /// collection path.  Null = no profile publishing on scrape.
  TelemetryNode(MetricsRegistry& registry, std::string node, std::string role,
                ProfileRegistry* profile = nullptr);

  void register_with(rpc::ServiceDispatcher& dispatcher);

  /// Appends this callback's report (an object server's per-OID
  /// epoch/digest/expiry view — see obs/consistency.hpp) to every scrape
  /// reply, after the snapshot.  Must be set before register_with(); a
  /// node without a source answers with the snapshot alone.
  void set_consistency_source(std::function<ConsistencyReport()> source) {
    consistency_source_ = std::move(source);
  }

  MetricsRegistry& registry() { return *registry_; }

 private:
  MetricsRegistry* registry_;
  ProfileRegistry* profile_;
  std::string node_, role_;
  std::function<ConsistencyReport()> consistency_source_;
};

/// A target's part in the consistency audit.
enum class AuditRole {
  kNone,
  kMaster,   // its report is the authoritative epoch/digest per document
  kReplica,  // each of its documents is classified against the master's
};

/// One fleet member the aggregator polls.
struct ScrapeTarget {
  std::string node;   // unique node label, e.g. "proxy-paris"
  std::string role;   // role label, e.g. "proxy", "object-server"
  net::Endpoint endpoint;
  AuditRole audit = AuditRole::kNone;
};

/// Aggregator-side view of one target's scrape health.
struct NodeStatus {
  std::string node;
  std::string role;
  bool stale = true;             // latest round had no usable snapshot
  std::uint64_t scrapes_ok = 0;
  std::uint64_t scrapes_failed = 0;
  util::SimTime last_success = 0;
  std::string last_error;        // most recent failure, "" when none yet
};

/// Polls the fleet, audits its consistency and evaluates its SLOs.
/// Besides its telemetry.* health series and the slo.alerts_firing /
/// slo.alerts_pending gauges, the aggregator's own registry
/// (node=aggregator, role=aggregator) carries the audit's exports:
///   * replication.staleness_ms{replica=}        histogram of how far
///     behind non-fresh replicas are (time since the pair fell behind);
///   * replication.stale_replicas /
///     replication.diverged_replicas             fleet gauges (replicas
///     with >=1 stale/behind doc, resp. >=1 diverged doc);
///   * replication.cert_expiry_horizon_s{replica=}  worst-case remaining
///     certificate validity across the replica's docs;
///   * replication.audit.checks{replica=,state=} counter of per-doc
///     verdicts — the staleness burn-rate SLO's good/total source;
///   * replication.audit.forged{replica=}        well-formed lies (epoch
///     ahead of the master).
class TelemetryAggregator {
 public:
  struct Config {
    /// Scrape spans land here; nullptr = obs::global_trace_collector().
    TraceSink* trace_sink = nullptr;
  };
  /// Scrape rounds the ring retains, oldest dropped first.
  static constexpr std::size_t kMaxRounds = 128;

  TelemetryAggregator();
  explicit TelemetryAggregator(Config config);

  void add_target(ScrapeTarget target) GLOBE_EXCLUDES(mutex_);
  std::size_t target_count() const GLOBE_EXCLUDES(mutex_);

  /// Installs an SLO, evaluated at the end of every scrape round.  Specs
  /// must reference cataloged metric names (docs/metrics.md) — the project
  /// lint's slo-catalog check enforces this on literals.  Throws
  /// std::invalid_argument unless 0 < objective < 1 and
  /// 0 < short_window <= long_window.
  void add_slo(SloSpec spec) GLOBE_EXCLUDES(mutex_);

  /// Alert instances as of the latest round, sorted by (slo, labels).
  std::vector<AlertState> alerts() const GLOBE_EXCLUDES(mutex_);

  /// One scrape round over `transport` at transport.now(): calls every
  /// target under a "scrape_round" trace (one child span per target),
  /// audits the round's consistency reports, appends the round — with
  /// the aggregator's own registry filed as one more node — to the ring,
  /// and evaluates every SLO against it (state changes are stamped with
  /// the round's time).  Thread-compatible like a client flow: call from
  /// one driving thread.
  /// Blocking: one RPC per fleet target.  Targets are snapshotted under
  /// the lock; the RPCs themselves run with no lock held.
  GLOBE_BLOCKING void scrape_round(net::Transport& transport) GLOBE_EXCLUDES(mutex_);

  /// Per-node series of the latest round (fresh nodes and the aggregator
  /// itself, node=/role= labels guaranteed) plus cluster-level aggregates
  /// with node/role labels stripped (counter sums, gauge last-write in
  /// target order, histogram bucket merges), plus derived windowed series
  /// from the cluster aggregate of the window delta: for each counter a
  /// `<name>:rate1m` gauge, for each histogram a `<name>:p99_5m` gauge,
  /// when the ring spans enough history.
  Snapshot merged() const GLOBE_EXCLUDES(mutex_);

  std::vector<NodeStatus> nodes() const GLOBE_EXCLUDES(mutex_);

  /// Summed window delta of every counter series named `name` whose label
  /// set CONTAINS all of `filter` (subset match; pass the full label set,
  /// node= and role= included, to read one series) — how an availability
  /// SLO totals "proxy.fetches across all outcomes on node X".  nullopt
  /// without a window or when no series matched; .seconds is the actual
  /// time spanned.
  struct WindowedSum {
    double delta = 0;
    double seconds = 0;
  };
  std::optional<WindowedSum> windowed_delta_sum(const std::string& name,
                                                const Labels& filter,
                                                util::SimDuration window) const
      GLOBE_EXCLUDES(mutex_);

  /// The window delta of one histogram series (labels matched exactly):
  /// bucket counts, count and sum are the increments between the window's
  /// edge rounds; quantiles are re-estimated from the delta buckets.
  /// nullopt without a window or when the series has no delta in it.
  std::optional<MetricSample> windowed_histogram(const std::string& name,
                                                 const Labels& labels,
                                                 util::SimDuration window) const
      GLOBE_EXCLUDES(mutex_);

  /// Label sets of every series named `name` in the latest round.
  std::vector<Labels> series_labels(const std::string& name) const
      GLOBE_EXCLUDES(mutex_);

  std::uint64_t rounds() const GLOBE_EXCLUDES(mutex_);
  util::SimTime last_round_time() const GLOBE_EXCLUDES(mutex_);

  /// Latest round's audit verdicts, replica-major then OID order.
  std::vector<ReplicaRow> rows() const GLOBE_EXCLUDES(mutex_);
  /// True when the latest round reached the master and saw every replica
  /// fresh on every master document (and there was something to check).
  bool converged() const GLOBE_EXCLUDES(mutex_);
  std::size_t replica_count() const GLOBE_EXCLUDES(mutex_);
  std::uint64_t master_epoch_sum() const GLOBE_EXCLUDES(mutex_);

  MetricsRegistry& self_registry() { return self_registry_; }

 private:
  /// The node label of the aggregator's own registry in every round.
  static constexpr const char* kNode = "aggregator";

  struct Round {
    util::SimTime time = 0;
    // node -> labeled snapshot (successful scrapes only).
    std::map<std::string, Snapshot> per_node;
  };

  /// What changed over a trailing window: the latest round against the
  /// oldest round inside the window.  One non-negative delta sample per
  /// counter or histogram series present at both edges (labels matched
  /// exactly, histogram quantiles re-estimated from the delta buckets),
  /// in latest-round order.  A series born or lost inside the window, or
  /// reset across it, has no delta.
  struct WindowDelta {
    double seconds = 0;  // time spanned by the two edge rounds
    std::vector<MetricSample> series;
  };
  /// nullopt while no earlier round lies inside the window.
  std::optional<WindowDelta> window_delta_locked(util::SimDuration window) const
      GLOBE_REQUIRES(mutex_);

  /// Burns every SLO against the ring's newest round and steps each alert
  /// instance's state machine at that round's time (obs/slo.cpp).
  void evaluate_slos_locked() GLOBE_REQUIRES(mutex_);

  /// Authoritative per-document state from the master's latest report.
  struct DocState {
    std::uint64_t epoch = 0;
    util::Bytes digest;
    util::SimTime epoch_since = 0;  // when this epoch was first observed
  };

  /// The consistency pass at the end of a round: `reports[i]` is target
  /// i's sanitized report, null when its reply was rejected.  Rebuilds the
  /// audit state and counts the verdicts on the aggregator's registry.
  void audit_locked(const std::vector<ScrapeTarget>& targets,
                    const std::vector<const ConsistencyReport*>& reports,
                    util::SimTime now) GLOBE_REQUIRES(mutex_);

  Config config_;
  MetricsRegistry self_registry_;
  Counter* scrape_rounds_;
  Gauge* nodes_fresh_;
  Gauge* nodes_stale_;
  Gauge* alerts_firing_;
  Gauge* alerts_pending_;

  mutable util::Mutex mutex_;
  std::vector<ScrapeTarget> targets_ GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex_);
  std::map<std::string, NodeStatus> status_ GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex_);
  std::deque<Round> ring_ GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex_);  // oldest first
  std::uint64_t round_count_ GLOBE_GUARDED_BY(mutex_) = 0;
  // Keyed by raw OID bytes; rebuilt from the master's report every round
  // (epoch_since carried over while the epoch holds still), so it is
  // bounded by the decode gate's kMaxReportDocs cap.
  std::map<util::Bytes, DocState> docs_ GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex_);
  std::vector<ReplicaRow> rows_ GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex_);
  // When each currently-behind (replica, OID) pair first fell behind the
  // master; rebuilt every round (entries for recovered pairs drop out), so
  // it never outgrows replica targets x master docs.
  std::map<std::pair<std::string, util::Bytes>, util::SimTime> stale_since_
      GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex_);
  bool master_reachable_ GLOBE_GUARDED_BY(mutex_) = false;
  std::vector<SloSpec> slos_ GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex_);
  // One instance per (spec name, offending label set), kept as history.
  std::map<std::pair<std::string, Labels>, AlertState> alerts_
      GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex_);
};

}  // namespace globe::obs
