// Verified element cache (DESIGN.md §12): the shared bounded, expiring LRU
// (util/lru_cache.hpp), content-addressed and locked for concurrent flows.
//
// Admission discipline: insert() is a trusted sink — only elements that
// passed IntegrityCertificate::check_element may enter, and every entry
// carries the verifying certificate entry's validity end.  From then on
// the element is served without re-verification ("verified once, served
// many times") until the window closes; lookup() evicts expired entries
// instead of serving them.  Capacity is bounded both in entries and in
// bytes; the least recently used entry goes first.
//
// Thread-safe.  The eviction listener runs with the cache lock held and
// must not call back into this cache (the tier uses it to count evictions
// and cancel delayed replication — cache lock before replicator lock is
// the tier's fixed lock order).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "cache/cache_key.hpp"
#include "globedoc/element.hpp"
#include "util/clock.hpp"
#include "util/lru_cache.hpp"
#include "util/mutex.hpp"
#include "util/taint_annotations.hpp"

namespace globe::cache {

using util::EvictReason;

class ElementCache {
 public:
  struct Config {
    std::size_t max_entries = 4096;
    std::uint64_t max_bytes = 64ull << 20;  // element content + names
  };

  struct Hit {
    globedoc::PageElement element;
    util::SimTime expires = 0;
  };

  using EvictionListener = std::function<void(const CacheKey&, EvictReason)>;

  explicit ElementCache(Config config)
      : lru_({config.max_entries, config.max_bytes}) {}

  /// Setup-time only: must be installed before concurrent use.
  void set_eviction_listener(EvictionListener listener) {
    util::LockGuard lock(mutex_);
    lru_.set_eviction_listener(std::move(listener));
  }

  /// Returns the entry and refreshes its recency; an entry whose validity
  /// window has closed at `now` is evicted (kExpired) and reported a miss.
  std::optional<Hit> lookup(const CacheKey& key, util::SimTime now)
      GLOBE_EXCLUDES(mutex_);

  /// Admits a VERIFIED element valid until `expires` (trusted sink: the
  /// caller must have run check_element under the certificate whose entry
  /// digest is key.content_sha1).  Oversized elements (> max_bytes alone)
  /// are not admitted; admission may displace LRU entries.
  void insert(const CacheKey& key,
              GLOBE_TRUSTED_SINK const globedoc::PageElement& element,
              util::SimTime expires) GLOBE_EXCLUDES(mutex_);

  bool contains(const CacheKey& key) const GLOBE_EXCLUDES(mutex_);
  void erase(const CacheKey& key) GLOBE_EXCLUDES(mutex_);
  void clear() GLOBE_EXCLUDES(mutex_);

  std::size_t size() const GLOBE_EXCLUDES(mutex_);
  std::uint64_t bytes() const GLOBE_EXCLUDES(mutex_);

 private:
  static std::uint64_t entry_bytes(const globedoc::PageElement& element) {
    return element.content.size() + element.name.size() +
           element.content_type.size();
  }

  mutable util::Mutex mutex_;
  util::LruCache<CacheKey, globedoc::PageElement> lru_ GLOBE_GUARDED_BY(mutex_);
};

}  // namespace globe::cache
