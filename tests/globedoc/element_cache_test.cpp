// Verified client-side element caching ([13]'s "Verif" client strategy): a
// proxy with cached bindings and its own edge-cache tier serves a verified
// element locally until its certificate entry expires — the entry's validity
// interval doubles as a sound cache TTL (§3.2.2).
#include <gtest/gtest.h>

#include <string>

#include "cache/tier.hpp"
#include "globedoc/proxy.hpp"
#include "obs/metrics.hpp"
#include "tests/globedoc/operator_view.hpp"
#include "tests/globedoc/world_fixture.hpp"

namespace globe::globedoc {
namespace {

using globe::globedoc::testing::WorldFixture;
using util::to_bytes;

struct ElementCacheFixture : WorldFixture {
  /// A tier private to one proxy.  No background sibling pulls, so every
  /// cached element is one the proxy itself fetched.
  static cache::TierConfig private_tier(obs::MetricsRegistry* registry) {
    cache::TierConfig config;
    config.delayed_replication = false;
    config.registry = registry;
    return config;
  }

  GlobeDocProxy make_proxy() {
    ProxyConfig config = proxy_config();
    config.cache_bindings = true;
    config.edge_cache = &tier;
    config.registry = &registry;
    return GlobeDocProxy(*client_flow, config);
  }

  /// What the client has asked of the network so far: elements the object
  /// server returned, the proxy's name resolutions, and lookups at its
  /// Location Service site.
  struct Upstream {
    std::uint64_t elements = 0;
    std::uint64_t resolves = 0;
    std::uint64_t lookups = 0;
    bool operator==(const Upstream&) const = default;
  };
  Upstream upstream() {
    return {testing::elements_served("srv-1"),
            registry.counter("naming.resolves", {{"outcome", "ok"}}).value(),
            obs::global_registry()
                .counter("location.node.lookups", {{"domain", "site-client"}})
                .value()};
  }

  obs::MetricsRegistry registry;
  cache::EdgeCacheTier tier{private_tier(&registry)};
};

TEST_F(ElementCacheFixture, SecondFetchServedLocally) {
  auto proxy = make_proxy();
  auto first = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(first.is_ok());
  EXPECT_FALSE(first->metrics.served_from_edge_cache);
  EXPECT_EQ(tier.element_cache().size(), 1u);

  const Upstream before = upstream();
  util::SimTime t = client_flow->now();
  auto second = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(second.is_ok());
  EXPECT_TRUE(second->metrics.used_cached_binding);
  EXPECT_TRUE(second->metrics.served_from_edge_cache);
  // Zero upstream RPCs: the only time spent is the copy out of the tier.
  EXPECT_EQ(upstream(), before);
  EXPECT_EQ(client_flow->now() - t,
            net.host(client_host)
                .cpu.cost(net::CpuOp::kMemCopy, first->element.content.size()));
  EXPECT_EQ(second->element.content, first->element.content);
  EXPECT_EQ(second->certified_as, first->certified_as);
}

TEST_F(ElementCacheFixture, CacheExpiresWithCertificateEntry) {
  auto proxy = make_proxy();
  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());

  // Advance past the 3600s validity window: the cached copy would now be
  // stale, so the proxy must go back to the network — where it discovers
  // the replica's state is expired too.
  client_flow->advance(util::seconds(4000));
  auto result = proxy.fetch(object_name, "index.html");
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.code(), util::ErrorCode::kExpired);

  // A refreshed replica repopulates the cache; the stale entry is evicted,
  // not served.
  publish_flow->set_time(client_flow->now());
  ASSERT_TRUE(owner
                  ->refresh_replicas(*publish_flow, client_flow->now(),
                                     util::seconds(3600))
                  .is_ok());
  const std::size_t served = testing::elements_served("srv-1");
  auto again = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(again.is_ok());
  EXPECT_FALSE(again->metrics.served_from_edge_cache);
  EXPECT_EQ(testing::elements_served("srv-1"), served + 1);
  EXPECT_EQ(tier.element_cache().size(), 1u);
  EXPECT_EQ(registry.counter("cache.evictions", {{"reason", "expired"}}).value(),
            1u);
}

TEST_F(ElementCacheFixture, DistinctElementsCachedSeparately) {
  auto proxy = make_proxy();
  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());
  ASSERT_TRUE(proxy.fetch(object_name, "story.txt").is_ok());
  EXPECT_EQ(tier.element_cache().size(), 2u);
  auto cached = proxy.fetch(object_name, "story.txt");
  ASSERT_TRUE(cached.is_ok());
  EXPECT_TRUE(cached->metrics.served_from_edge_cache);
  EXPECT_EQ(util::to_string(cached->element.content), "full text");
}

TEST_F(ElementCacheFixture, ClearCacheForcesRefetch) {
  auto proxy = make_proxy();
  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());
  tier.element_cache().clear();
  EXPECT_EQ(tier.element_cache().size(), 0u);
  const std::size_t served = testing::elements_served("srv-1");
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok());
  EXPECT_FALSE(result->metrics.served_from_edge_cache);
  EXPECT_EQ(testing::elements_served("srv-1"), served + 1);
}

TEST_F(ElementCacheFixture, DisabledByDefault) {
  ProxyConfig config = proxy_config();
  ASSERT_EQ(config.edge_cache, nullptr);
  GlobeDocProxy proxy(*client_flow, config);
  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());
  const std::size_t served = testing::elements_served("srv-1");
  auto second = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(second.is_ok());
  EXPECT_FALSE(second->metrics.served_from_edge_cache);
  EXPECT_EQ(testing::elements_served("srv-1"), served + 1);
}

TEST_F(ElementCacheFixture, StaleCacheCannotHideAnUpdateBeyondItsWindow) {
  // Within the validity window a cached (older) copy may legitimately be
  // served — that is precisely the freshness contract of §3.2.2.  Past the
  // window, the new content must appear.
  auto proxy = make_proxy();
  auto v1 = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(v1.is_ok());

  // Mid-window, the owner publishes v2 with a fresh validity interval.
  client_flow->advance(util::seconds(2000));
  publish_flow->set_time(client_flow->now());
  owner->object().put_element({"index.html", "text/html", to_bytes("<html>v2</html>")});
  ASSERT_TRUE(owner
                  ->refresh_replicas(*publish_flow, client_flow->now(),
                                     util::seconds(3600))
                  .is_ok());

  // Still inside the old entry's window: cache may answer with v1.
  auto inside = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(inside.is_ok());
  EXPECT_TRUE(inside->metrics.served_from_edge_cache);
  EXPECT_EQ(inside->element.content, v1->element.content);

  // Past the old window (but inside v2's): the proxy refetches, sees v2.
  client_flow->advance(util::seconds(1700));
  auto outside = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(outside.is_ok());
  EXPECT_FALSE(outside->metrics.served_from_edge_cache);
  EXPECT_EQ(util::to_string(outside->element.content), "<html>v2</html>");
}

TEST_F(ElementCacheFixture, DistinctNameCrawlKeepsEveryProxyCacheAtItsBound) {
  // A crawler visiting many distinct names must not grow the proxy: the
  // bindings and the certificate memo sit behind bounded LRUs.  Every name
  // here resolves to the same document, so the memo proves one RSA verify
  // serves the whole crawl, and the content-addressed tier holds one entry.
  constexpr std::size_t kBindings = GlobeDocProxy::kMaxBindings;
  constexpr int kNames = kBindings + 64;
  for (int i = 0; i < kNames; ++i) {
    owner->register_name(*root_zone, "mirror" + std::to_string(i) + ".vu.nl",
                         util::seconds(5000));
  }
  auto proxy = make_proxy();

  for (int i = 0; i < kNames; ++i) {
    auto result = proxy.fetch("mirror" + std::to_string(i) + ".vu.nl", "index.html");
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    ASSERT_LE(proxy.binding_count(), kBindings);
  }
  EXPECT_EQ(registry.counter("proxy.cert_verifies").value(), 1u);
  EXPECT_EQ(registry.counter("proxy.cert_verify_memo_hits").value(), kNames - 1u);
  EXPECT_EQ(tier.element_cache().size(), 1u);

  // The most recent names keep their bindings; the oldest were evicted and
  // re-bind, but every alias is served from the one tier entry.
  auto recent = proxy.fetch("mirror" + std::to_string(kNames - 1) + ".vu.nl",
                            "index.html");
  ASSERT_TRUE(recent.is_ok());
  EXPECT_TRUE(recent->metrics.used_cached_binding);
  EXPECT_TRUE(recent->metrics.served_from_edge_cache);
  auto oldest = proxy.fetch("mirror0.vu.nl", "index.html");
  ASSERT_TRUE(oldest.is_ok());
  EXPECT_FALSE(oldest->metrics.used_cached_binding);
  EXPECT_TRUE(oldest->metrics.served_from_edge_cache);
}

TEST_F(ElementCacheFixture, BindingExpiresWithItsCertificate) {
  ProxyConfig config = proxy_config();
  config.cache_bindings = true;
  GlobeDocProxy proxy(*client_flow, config);
  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());
  ASSERT_EQ(proxy.binding_count(), 1u);

  // Past the certificate's last entry the binding can verify nothing: it is
  // dropped instead of being tried, and the proxy binds afresh against the
  // refreshed replica.
  client_flow->advance(util::seconds(4000));
  publish_flow->set_time(client_flow->now());
  ASSERT_TRUE(owner
                  ->refresh_replicas(*publish_flow, client_flow->now(),
                                     util::seconds(3600))
                  .is_ok());
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok());
  EXPECT_FALSE(result->metrics.used_cached_binding);
  EXPECT_EQ(result->metrics.replicas_tried, 1u);
}

}  // namespace
}  // namespace globe::globedoc
