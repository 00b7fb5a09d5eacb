// Replica freshness maintenance: a hosting server keeps its replicas'
// certificates from expiring by pulling refreshed state from peer sources
// before the validity window closes — no owner involvement per replica
// (the owner only refreshes its master copy).
//
// Combines S19 (peer-to-peer pull) with the paper's freshness model: a
// replica whose certificate lapsed is useless (clients reject it), so a
// production object server re-syncs proactively.
#pragma once

#include <map>
#include <vector>

#include "globedoc/server.hpp"
#include "obs/metrics.hpp"
#include "replication/refresher.hpp"
#include "util/bounds_annotations.hpp"

namespace globe::replication {

class ReplicaMaintainer {
 public:
  struct Config {
    /// Refresh when the earliest certificate entry expires within this.
    util::SimDuration refresh_margin = util::seconds(300);
    /// Registry for the replication.maintainer.* series; nullptr means the
    /// process-wide obs::global_registry().
    obs::MetricsRegistry* registry = nullptr;
  };

  ReplicaMaintainer(globedoc::ObjectServer& server, net::Transport& transport,
                    Config config);
  ReplicaMaintainer(globedoc::ObjectServer& server, net::Transport& transport)
      : ReplicaMaintainer(server, transport, Config{}) {}

  /// Registers a replica to maintain: where to pull it from (tried in
  /// order) and the currently hosted state's version + earliest expiry.
  void track(const globedoc::Oid& oid, std::vector<net::Endpoint> sources,
             std::uint64_t version, util::SimTime earliest_expiry);
  void untrack(const globedoc::Oid& oid);
  std::size_t tracked() const { return entries_.size(); }

  struct TickReport {
    std::size_t checked = 0;
    std::size_t refreshed = 0;
    std::size_t failed = 0;
  };

  /// Runs one maintenance pass at time `now`: every tracked replica whose
  /// window ends within refresh_margin is re-pulled from its sources.
  /// A replica whose every source fails is counted in `failed` and retried
  /// on the next tick.
  TickReport tick(util::SimTime now);

 private:
  struct Entry {
    std::vector<net::Endpoint> sources;
    std::uint64_t version = 0;
    util::SimTime earliest_expiry = 0;
  };

  globedoc::ObjectServer* server_;
  net::Transport* transport_;
  Config config_;
  std::map<globedoc::Oid, Entry> entries_ GLOBE_BOUNDED;
  obs::Counter* checked_counter_;
  obs::Counter* refreshed_counter_;
  // replication.maintainer.failed split by reason= so operators can tell a
  // partitioned source (transport/timeout) from a hostile or corrupt one
  // (verification) straight from /metrics.
  obs::Counter* failed_verification_;
  obs::Counter* failed_transport_;
  obs::Counter* failed_timeout_;
};

}  // namespace globe::replication
