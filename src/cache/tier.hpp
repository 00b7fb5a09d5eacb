// The verified edge-cache tier (DESIGN.md §12): glue between the proxy's
// element-fetch path and the three cache primitives.
//
//   ElementCache      — verified-once-serve-many store, bounded LRU
//   SingleFlight      — thundering-herd collapse: N misses → 1 upstream fill
//   DelayedReplicator — pull-on-access background replication of siblings
//
// fetch_through() is the single entry point the proxy calls per element:
//   1. no certificate entry → kNotFound (same as the direct path);
//   2. entry already expired → kExpired before touching cache or network;
//   3. cache hit → serve, zero upstream traffic;
//   4. miss → single-flight fill: ONE fetch_many round trip to the replica,
//      globedoc::verify_element (the proxy's own step-6 check), admission,
//      and every concurrent requester of the same content shares that one
//      result — including a failure (a tampered fill fails the whole
//      coalesced group and caches nothing).
// First access to a document also schedules its remaining elements for
// delayed pull (run_delayed_pulls() drains the queue); evicting an entry
// cancels pending pulls for its document.
//
// One tier instance is meant to be SHARED by many proxies/flows on a node —
// that sharing is where coalescing and the fleet-wide hit ratio come from.
#pragma once

#include <cstdint>

#include "cache/delayed_replicator.hpp"
#include "cache/element_cache.hpp"
#include "cache/single_flight.hpp"
#include "globedoc/cache_iface.hpp"
#include "obs/metrics.hpp"
#include "util/lru_cache.hpp"
#include "util/mutex.hpp"

namespace globe::cache {

struct TierConfig {
  ElementCache::Config cache;
  bool delayed_replication = true;  // schedule sibling pulls on first access
  /// Registry for the cache.* metric family; nullptr = unmetered.
  obs::MetricsRegistry* registry = nullptr;
};

class EdgeCacheTier final : public globedoc::ElementCacheTier {
 public:
  explicit EdgeCacheTier(TierConfig config);

  util::Result<globedoc::EdgeFetch> fetch_through(
      net::Transport& transport, const net::Endpoint& replica,
      const globedoc::Oid& oid,
      const globedoc::IntegrityCertificate& certificate,
      const std::string& element_name) override;

  /// Drains the delayed-replication queue over `transport` (the caller
  /// decides when background bandwidth is cheap).  No-op when delayed
  /// replication is off.
  DelayedReplicator::PumpStats run_delayed_pulls(net::Transport& transport);

  ElementCache& element_cache() { return cache_; }
  DelayedReplicator& replicator() { return replicator_; }

 private:
  struct EdgeFill {
    globedoc::PageElement element;
    util::SimTime completed_at = 0;  // leader's clock when the fill landed
  };

  /// Fills the element of `entry`, one of `certificate`'s entries.
  util::Result<EdgeFill> fill(net::Transport& transport,
                              const net::Endpoint& replica,
                              const globedoc::Oid& oid,
                              const globedoc::IntegrityCertificate& certificate,
                              const globedoc::ElementEntry& entry);

  // First-access tracking for delayed replication.  Forgetting an old
  // document merely means a later access may schedule a (deduped) pull again.
  bool first_access(const globedoc::Oid& oid) GLOBE_EXCLUDES(seen_mutex_);

  TierConfig config_;
  ElementCache cache_;
  DelayedReplicator replicator_;
  SingleFlight<CacheKey, EdgeFill> flights_;

  util::Mutex seen_mutex_;
  util::LruCache<globedoc::Oid, bool> seen_ GLOBE_GUARDED_BY(seen_mutex_);

  // cache.* metric family (nullptr when unmetered).
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* coalesced_ = nullptr;
  obs::Counter* evictions_capacity_ = nullptr;
  obs::Counter* evictions_expired_ = nullptr;
  obs::Counter* evictions_explicit_ = nullptr;
  obs::Counter* delayed_pulls_ = nullptr;
  obs::Counter* delayed_dropped_ = nullptr;
  obs::Histogram* fill_ms_ = nullptr;
};

}  // namespace globe::cache
