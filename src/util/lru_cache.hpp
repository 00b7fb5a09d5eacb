// Bounded, expiring LRU map (DESIGN.md §12) — the one store behind every
// verified cache and memo in the tree: the edge tier's ElementCache (the
// only store of verified elements) and first-access set, the proxy's
// bindings and certificate-verification memo, the resolver's answer cache,
// and the object server's outstanding admin nonces.
//
// Bounds: at most `max_entries` entries and at most `max_cost` summed cost
// (callers charge what they want bounded, e.g. content bytes).  Admission
// displaces least-recently-used entries until the newcomer fits; an entry
// that cannot fit even alone is not admitted, so a futile admit never
// flushes the cache.  Expiry: every entry carries the instant its validity
// window closes; find() at or past it evicts instead of serving.
//
// Not thread-safe: owners shared across threads hold their own lock, and the
// eviction listener then runs under that lock and must not re-enter.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <map>

#include "util/bounds_annotations.hpp"
#include "util/clock.hpp"

namespace globe::util {

enum class EvictReason {
  kCapacity,  // LRU displacement under the entry/cost bounds
  kExpired,   // validity window closed
  kExplicit,  // erase()/clear()
};

template <typename K, typename V>
class LruCache {
 public:
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  struct Limits {
    std::size_t max_entries = 0;
    std::uint64_t max_cost = std::numeric_limits<std::uint64_t>::max();
  };

  struct Slot {
    V value;
    SimTime expires = kNever;
  };

  using EvictionListener = std::function<void(const K&, EvictReason)>;

  explicit LruCache(Limits limits) : limits_(limits) {}
  // lru_ points into index_'s nodes, which a copy would not carry over.
  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Setup-time only; called after each eviction with the evicted key.
  void set_eviction_listener(EvictionListener listener) {
    listener_ = std::move(listener);
  }

  /// The live entry for `key`, refreshed to most recent.  An entry whose
  /// window has closed at `now` is evicted (kExpired) and reported a miss.
  Slot* find(const K& key, SimTime now) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    if (it->second.slot.expires <= now) {
      evict(it, EvictReason::kExpired);
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return &it->second.slot;
  }

  /// Probe without refreshing recency or checking expiry.
  const Slot* peek(const K& key) const {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second.slot;
  }

  /// Inserts `key` as most recent, replacing any previous entry (without
  /// reporting it evicted).  Returns false, changing nothing, when `cost`
  /// alone exceeds the cost bound or the cache holds no entries at all.
  bool put(K key, V value, SimTime expires = kNever, std::uint64_t cost = 0) {
    if (cost > limits_.max_cost || limits_.max_entries == 0) return false;
    if (auto it = index_.find(key); it != index_.end()) unlink(it);
    while (index_.size() >= limits_.max_entries ||
           cost_ + cost > limits_.max_cost) {
      evict(index_.find(*lru_.back()), EvictReason::kCapacity);
    }
    auto it = index_
                  .emplace(std::move(key),
                           Node{Slot{std::move(value), expires}, cost, {}})
                  .first;
    lru_.push_front(&it->first);
    it->second.lru_pos = lru_.begin();
    cost_ += cost;
    return true;
  }

  /// Evicts `key` (kExplicit); false when absent.
  bool erase(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    evict(it, EvictReason::kExplicit);
    return true;
  }

  void clear() {
    while (!index_.empty()) evict(index_.begin(), EvictReason::kExplicit);
  }

  std::size_t size() const { return index_.size(); }
  std::uint64_t cost() const { return cost_; }

 private:
  struct Node {
    Slot slot;
    std::uint64_t cost = 0;
    typename std::list<const K*>::iterator lru_pos;
  };
  using Iter = typename std::map<K, Node>::iterator;

  void unlink(Iter it) {
    cost_ -= it->second.cost;
    lru_.erase(it->second.lru_pos);
    index_.erase(it);
  }

  void evict(Iter it, EvictReason reason) {
    if (!listener_) return unlink(it);
    const K key = it->first;
    unlink(it);
    listener_(key, reason);
  }

  Limits limits_;
  EvictionListener listener_;  // set before use, then read-only
  std::map<K, Node> index_ GLOBE_BOUNDED;
  std::list<const K*> lru_ GLOBE_BOUNDED;  // front = most recent; keys live in index_
  std::uint64_t cost_ = 0;
};

}  // namespace globe::util
