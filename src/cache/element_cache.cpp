#include "cache/element_cache.hpp"

#include <algorithm>

namespace globe::cache {

std::optional<ElementCache::Hit> ElementCache::lookup(const CacheKey& key,
                                                      util::SimTime now) {
  util::LockGuard lock(mutex_);
  auto* slot = lru_.find(key, now);
  if (slot == nullptr) return std::nullopt;
  return Hit{slot->value, slot->expires};
}

void ElementCache::insert(const CacheKey& key,
                          const globedoc::PageElement& element,
                          util::SimTime expires) {
  util::LockGuard lock(mutex_);
  // Same content hash ⇒ same bytes; a re-insert only widens the window
  // (a refreshed certificate re-verified the same content).
  if (const auto* old = lru_.peek(key)) expires = std::max(expires, old->expires);
  lru_.put(key, element, expires, entry_bytes(element));
}

bool ElementCache::contains(const CacheKey& key) const {
  util::LockGuard lock(mutex_);
  return lru_.peek(key) != nullptr;
}

void ElementCache::erase(const CacheKey& key) {
  util::LockGuard lock(mutex_);
  lru_.erase(key);
}

void ElementCache::clear() {
  util::LockGuard lock(mutex_);
  lru_.clear();
}

std::size_t ElementCache::size() const {
  util::LockGuard lock(mutex_);
  return lru_.size();
}

std::uint64_t ElementCache::bytes() const {
  util::LockGuard lock(mutex_);
  return lru_.cost();
}

}  // namespace globe::cache
