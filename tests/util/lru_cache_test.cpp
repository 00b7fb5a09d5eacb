// LruCache: the bounded, expiring LRU behind every verified cache and memo —
// recency order, entry and cost bounds, expiry, listener reasons, and a
// million-key crawl that leaves the footprint flat.
#include "util/lru_cache.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace globe::util {
namespace {

using Cache = LruCache<std::string, int>;

TEST(LruCacheTest, FindServesUntilExpiryThenEvicts) {
  Cache cache({.max_entries = 4});
  ASSERT_TRUE(cache.put("a", 1, /*expires=*/1000));
  const auto* hit = cache.find("a", 999);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->value, 1);
  EXPECT_EQ(hit->expires, 1000u);
  EXPECT_EQ(cache.find("a", 1000), nullptr);  // the window's end is exclusive
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, DefaultExpiryIsNever) {
  Cache cache({.max_entries = 4});
  cache.put("a", 1);
  EXPECT_NE(cache.find("a", Cache::kNever - 1), nullptr);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedAtEntryBound) {
  Cache cache({.max_entries = 2});
  cache.put("a", 1);
  cache.put("b", 2);
  ASSERT_NE(cache.find("a", 0), nullptr);  // a is now most recent
  cache.put("c", 3);
  EXPECT_NE(cache.peek("a"), nullptr);
  EXPECT_EQ(cache.peek("b"), nullptr);
  EXPECT_NE(cache.peek("c"), nullptr);
}

TEST(LruCacheTest, PeekLeavesRecencyAlone) {
  Cache cache({.max_entries = 2});
  cache.put("a", 1);
  cache.put("b", 2);
  ASSERT_NE(cache.peek("a"), nullptr);  // no refresh: a stays oldest
  cache.put("c", 3);
  EXPECT_EQ(cache.peek("a"), nullptr);
  EXPECT_NE(cache.peek("b"), nullptr);
}

TEST(LruCacheTest, CostBoundEvictsUntilTheNewcomerFits) {
  Cache cache({.max_entries = 100, .max_cost = 250});
  cache.put("a", 1, Cache::kNever, 100);
  cache.put("b", 2, Cache::kNever, 100);
  cache.put("c", 3, Cache::kNever, 100);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.peek("a"), nullptr);
  EXPECT_EQ(cache.cost(), 200u);
}

TEST(LruCacheTest, OversizedEntryIsRefusedWithoutFlushing) {
  Cache cache({.max_entries = 8, .max_cost = 100});
  cache.put("a", 1, Cache::kNever, 50);
  EXPECT_FALSE(cache.put("big", 2, Cache::kNever, 101));
  EXPECT_NE(cache.peek("a"), nullptr);
  EXPECT_EQ(cache.cost(), 50u);

  Cache none({.max_entries = 0});
  EXPECT_FALSE(none.put("a", 1));
  EXPECT_EQ(none.size(), 0u);
}

TEST(LruCacheTest, PutReplacesSilentlyAndRechargesCost) {
  Cache cache({.max_entries = 4, .max_cost = 1000});
  int evictions = 0;
  cache.set_eviction_listener([&](const std::string&, EvictReason) { ++evictions; });
  cache.put("a", 1, 10, 100);
  cache.put("a", 2, 20, 300);
  EXPECT_EQ(evictions, 0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.cost(), 300u);
  EXPECT_EQ(cache.peek("a")->value, 2);
  EXPECT_EQ(cache.peek("a")->expires, 20u);
}

TEST(LruCacheTest, ListenerReportsReasons) {
  Cache cache({.max_entries = 1});
  std::vector<std::pair<std::string, EvictReason>> events;
  cache.set_eviction_listener([&](const std::string& key, EvictReason why) {
    events.emplace_back(key, why);
  });
  cache.put("a", 1, 1000);
  cache.put("b", 2, 1000);             // displaces a
  EXPECT_EQ(cache.find("b", 5000), nullptr);  // expired
  cache.put("c", 3, 1000);
  EXPECT_TRUE(cache.erase("c"));
  EXPECT_FALSE(cache.erase("c"));
  cache.put("d", 4);
  cache.clear();

  using Event = std::pair<std::string, EvictReason>;
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0], (Event{"a", EvictReason::kCapacity}));
  EXPECT_EQ(events[1], (Event{"b", EvictReason::kExpired}));
  EXPECT_EQ(events[2], (Event{"c", EvictReason::kExplicit}));
  EXPECT_EQ(events[3], (Event{"d", EvictReason::kExplicit}));
}

TEST(LruCacheTest, MillionDistinctKeyCrawlStaysAtTheBound) {
  constexpr std::size_t kCap = 64;
  Cache cache({.max_entries = kCap, .max_cost = kCap * 10});
  std::size_t evicted = 0;
  cache.set_eviction_listener([&](const std::string&, EvictReason why) {
    EXPECT_EQ(why, EvictReason::kCapacity);
    ++evicted;
  });
  constexpr int kKeys = 1'000'000;
  for (int i = 0; i < kKeys; ++i) {
    cache.put("doc" + std::to_string(i) + ".vu.nl", i, Cache::kNever, 10);
    ASSERT_LE(cache.size(), kCap);
  }
  EXPECT_EQ(cache.size(), kCap);
  EXPECT_EQ(cache.cost(), kCap * 10);
  EXPECT_EQ(evicted, kKeys - kCap);
  // The survivors are exactly the most recent kCap keys.
  EXPECT_NE(cache.peek("doc" + std::to_string(kKeys - 1) + ".vu.nl"), nullptr);
  EXPECT_EQ(cache.peek("doc" + std::to_string(kKeys - kCap - 1) + ".vu.nl"), nullptr);
}

}  // namespace
}  // namespace globe::util
