// Verified client-side element caching: the certificate entry's validity
// interval doubles as a sound cache TTL ([13]'s "Verif" client strategy).
#include <gtest/gtest.h>

#include <string>

#include "globedoc/proxy.hpp"
#include "obs/metrics.hpp"
#include "tests/globedoc/world_fixture.hpp"

namespace globe::globedoc {
namespace {

using globe::globedoc::testing::WorldFixture;
using util::to_bytes;

struct ElementCacheFixture : WorldFixture {
  GlobeDocProxy make_proxy() {
    ProxyConfig config = proxy_config();
    config.cache_bindings = true;
    config.cache_elements = true;
    return GlobeDocProxy(*client_flow, config);
  }
};

TEST_F(ElementCacheFixture, SecondFetchServedLocally) {
  auto proxy = make_proxy();
  auto first = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(first.is_ok());
  EXPECT_FALSE(first->metrics.used_cached_element);
  EXPECT_EQ(proxy.element_cache_size(), 1u);

  util::SimTime t = client_flow->now();
  auto second = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(second.is_ok());
  EXPECT_TRUE(second->metrics.used_cached_element);
  EXPECT_EQ(client_flow->now(), t);  // zero network, zero virtual time
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
  EXPECT_EQ(proxy.element_cache_size(), 0u);  // stale entry evicted

  // A refreshed replica repopulates the cache.
  publish_flow->set_time(client_flow->now());
  ASSERT_TRUE(owner
                  ->refresh_replicas(*publish_flow, client_flow->now(),
                                     util::seconds(3600))
                  .is_ok());
  auto again = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(again.is_ok());
  EXPECT_FALSE(again->metrics.used_cached_element);
  EXPECT_EQ(proxy.element_cache_size(), 1u);
}

TEST_F(ElementCacheFixture, DistinctElementsCachedSeparately) {
  auto proxy = make_proxy();
  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());
  ASSERT_TRUE(proxy.fetch(object_name, "story.txt").is_ok());
  EXPECT_EQ(proxy.element_cache_size(), 2u);
  auto cached = proxy.fetch(object_name, "story.txt");
  ASSERT_TRUE(cached.is_ok());
  EXPECT_TRUE(cached->metrics.used_cached_element);
  EXPECT_EQ(util::to_string(cached->element.content), "full text");
}

TEST_F(ElementCacheFixture, ClearCacheForcesRefetch) {
  auto proxy = make_proxy();
  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());
  proxy.clear_element_cache();
  EXPECT_EQ(proxy.element_cache_size(), 0u);
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok());
  EXPECT_FALSE(result->metrics.used_cached_element);
}

TEST_F(ElementCacheFixture, DisabledByDefault) {
  ProxyConfig config = proxy_config();
  GlobeDocProxy proxy(*client_flow, config);
  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());
  auto second = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(second.is_ok());
  EXPECT_FALSE(second->metrics.used_cached_element);
  EXPECT_EQ(proxy.element_cache_size(), 0u);
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
  EXPECT_TRUE(inside->metrics.used_cached_element);

  // Past the old window (but inside v2's): the proxy refetches, sees v2.
  client_flow->advance(util::seconds(1700));
  auto outside = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(outside.is_ok());
  EXPECT_FALSE(outside->metrics.used_cached_element);
  EXPECT_EQ(util::to_string(outside->element.content), "<html>v2</html>");
}

TEST_F(ElementCacheFixture, DistinctNameCrawlKeepsEveryProxyCacheAtItsBound) {
  // A crawler visiting many distinct names must not grow the proxy: the
  // bindings, the element cache and the certificate memo all sit behind
  // bounded LRUs.  Every name here resolves to the same document, so the
  // memo also proves one RSA verify serves the whole crawl.
  constexpr std::size_t kBindings = GlobeDocProxy::kMaxBindings;
  constexpr std::size_t kElements = GlobeDocProxy::kMaxCachedElements;
  constexpr int kNames = kElements + 64;
  for (int i = 0; i < kNames; ++i) {
    owner->register_name(*root_zone, "mirror" + std::to_string(i) + ".vu.nl",
                         util::seconds(5000));
  }
  obs::MetricsRegistry registry;
  ProxyConfig config = proxy_config();
  config.cache_bindings = true;
  config.cache_elements = true;
  config.registry = &registry;
  GlobeDocProxy proxy(*client_flow, config);

  for (int i = 0; i < kNames; ++i) {
    auto result = proxy.fetch("mirror" + std::to_string(i) + ".vu.nl", "index.html");
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    ASSERT_LE(proxy.binding_count(), kBindings);
    ASSERT_LE(proxy.element_cache_size(), kElements);
  }
  EXPECT_EQ(registry.counter("proxy.cert_verifies").value(), 1u);
  EXPECT_EQ(registry.counter("proxy.cert_verify_memo_hits").value(), kNames - 1u);

  // The most recent names are still served locally; the oldest were evicted.
  auto recent = proxy.fetch("mirror" + std::to_string(kNames - 1) + ".vu.nl",
                            "index.html");
  ASSERT_TRUE(recent.is_ok());
  EXPECT_TRUE(recent->metrics.used_cached_element);
  auto oldest = proxy.fetch("mirror0.vu.nl", "index.html");
  ASSERT_TRUE(oldest.is_ok());
  EXPECT_FALSE(oldest->metrics.used_cached_element);
  EXPECT_FALSE(oldest->metrics.used_cached_binding);
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
