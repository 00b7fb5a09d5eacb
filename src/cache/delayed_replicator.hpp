// Pull-on-access delayed replication (DESIGN.md §12, paper §4.3).
//
// GlobeDoc replicates whole documents, but a client's first request names
// one element.  Instead of paying the full document transfer on the hot
// path, the tier serves that element and *schedules* the rest: the
// DelayedReplicator remembers (document, remaining element names,
// certificate, origin) and pulls the remainder in batched element/fetch_many
// round trips when pumped, verifying each element against the certificate
// (globedoc::verify_element) before admitting it to the cache.  Follow-up
// requests for sibling elements then hit the cache without a round trip.
//
// Bounds: the queue holds at most kMaxQueue documents (new work is dropped,
// not blocked, when full — delayed replication is an optimisation, never a
// correctness requirement) and each pump issues at most kPerOriginBatches
// fetch_many calls per origin, so one hot origin cannot monopolise a pump
// round.  cancel(oid) drops pending work, e.g. when the document's entries
// are evicted; it is safe to call from the cache's eviction listener (lock
// order is cache → replicator, and the pump never calls into the cache
// while holding the replicator lock).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "cache/element_cache.hpp"
#include "globedoc/integrity.hpp"
#include "globedoc/oid.hpp"
#include "net/transport.hpp"
#include "util/bounds_annotations.hpp"
#include "util/mutex.hpp"

namespace globe::cache {

class DelayedReplicator {
 public:
  static constexpr std::size_t kMaxQueue = 64;         // pending documents
  static constexpr std::size_t kPerOriginBatches = 2;  // per origin per pump

  struct PumpStats {
    std::uint64_t elements_pulled = 0;   // verified and admitted
    std::uint64_t elements_failed = 0;   // fetch or verification failures
    std::uint64_t documents_done = 0;    // tasks fully drained this pump
  };

  explicit DelayedReplicator(ElementCache& cache) : cache_(&cache) {}

  /// Queues the elements of `certificate` other than `accessed_name` for
  /// background pull from `origin`.  Dedupes by OID; returns false when the
  /// work was dropped (queue full, already queued, or nothing left to pull).
  bool schedule(const globedoc::Oid& oid, const net::Endpoint& origin,
                const globedoc::IntegrityCertificate& certificate,
                const std::string& accessed_name) GLOBE_EXCLUDES(mutex_);

  /// Drops pending work for `oid`.  Safe under the cache lock.
  void cancel(const globedoc::Oid& oid) GLOBE_EXCLUDES(mutex_);

  /// Pulls queued work over `transport`, at most kPerOriginBatches
  /// fetch_many calls per origin.  Returns what was accomplished; call
  /// repeatedly to drain.
  PumpStats pump(net::Transport& transport) GLOBE_EXCLUDES(mutex_);

  std::size_t pending() const GLOBE_EXCLUDES(mutex_);

 private:
  struct Task {
    globedoc::Oid oid;
    net::Endpoint origin;
    globedoc::IntegrityCertificate certificate;
    std::vector<std::string> names;  // still to pull
  };

  // Takes up to one batch of names off the task for `oid`; nullopt when the
  // task is gone (cancelled or drained).
  std::optional<Task> claim_batch_locked(const globedoc::Oid& oid)
      GLOBE_REQUIRES(mutex_);

  ElementCache* cache_;
  mutable util::Mutex mutex_;
  std::deque<Task> queue_ GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex_);
};

}  // namespace globe::cache
