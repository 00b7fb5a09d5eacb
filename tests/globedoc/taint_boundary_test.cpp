// Adversarial trust-boundary test (DESIGN.md §9): a malicious replica that
// serves correctly-signed certificates but tampered element bytes.  The
// tampered bytes are untrusted input that must never cross the two client
// trusted sinks — the verified element cache (ElementCache::insert, behind
// the proxy's edge tier) and the browser-bound response body.  This is the
// runtime counterpart of the static taint invariant checked by
// tools/taint_check.py.
#include <gtest/gtest.h>

#include "cache/tier.hpp"
#include "globedoc/proxy.hpp"
#include "globedoc/proxy_http.hpp"
#include "http/client.hpp"
#include "location/tree.hpp"
#include "tests/globedoc/world_fixture.hpp"

namespace globe::globedoc {
namespace {

using globe::globedoc::testing::WorldFixture;
using util::ErrorCode;
using util::to_bytes;

constexpr const char* kEvilBody = "<html><body>EVIL PAYLOAD</body></html>";

struct TaintBoundaryFixture : WorldFixture {
  /// A tier private to one proxy (no background sibling pulls): every
  /// element it holds is one a fetch admitted.
  static cache::TierConfig private_tier() {
    cache::TierConfig config;
    config.delayed_replication = false;
    return config;
  }

  /// Cached bindings plus the private tier.
  ProxyConfig caching_config() {
    ProxyConfig config = proxy_config();
    config.cache_bindings = true;
    config.edge_cache = &tier;
    return config;
  }

  /// Brings up a replica whose hosted state was tampered AFTER signing:
  /// the certificate chain is authentic, the index.html bytes are not —
  /// exactly what a compromised object server can do (paper §3.2.2), and
  /// registers its contact address at `site`.
  void add_malicious_replica(const net::Endpoint& site) {
    evil_server = std::make_unique<ObjectServer>("evil", 666);
    evil_server->register_with(evil_dispatcher);
    evil_ep = net::Endpoint{infra_host, 9000};
    net.bind(evil_ep, evil_dispatcher.handler());

    ReplicaState state =
        owner->sign_and_snapshot(publish_flow->now(), util::seconds(3600));
    bool tampered = false;
    for (auto& el : state.elements) {
      if (el.name == "index.html") {
        el.content = to_bytes(kEvilBody);
        tampered = true;
      }
    }
    ASSERT_TRUE(tampered);
    // install_replica_unchecked models the server's own storage, which sits
    // inside the server's trust domain — nothing verifies it again on the
    // way out; only clients do.
    ASSERT_TRUE(evil_server->install_replica_unchecked(state).is_ok());

    location::LocationClient loc(*publish_flow, site);
    ASSERT_TRUE(loc.insert(site, owner->object().oid().to_bytes(), evil_ep)
                    .is_ok());
  }

  std::unique_ptr<ObjectServer> evil_server;
  rpc::ServiceDispatcher evil_dispatcher;
  net::Endpoint evil_ep;
  cache::EdgeCacheTier tier{private_tier()};
};

TEST_F(TaintBoundaryFixture, TamperedElementNeverEntersElementCache) {
  net.unbind(server_ep);  // only the malicious replica is reachable
  add_malicious_replica(tree->endpoint("site-client"));

  GlobeDocProxy proxy(*client_flow, caching_config());
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_FALSE(result.is_ok());
  // Nothing unverified may have been cached: a poisoned entry would be
  // served without re-verification until its (forged) expiry.
  EXPECT_EQ(tier.element_cache().size(), 0u);

  // And retrying must re-fail, not "recover" from some hidden copy.
  EXPECT_FALSE(proxy.fetch(object_name, "index.html").is_ok());
  EXPECT_EQ(tier.element_cache().size(), 0u);
}

TEST_F(TaintBoundaryFixture, TamperedBytesNeverReachBrowserBody) {
  net.unbind(server_ep);
  add_malicious_replica(tree->endpoint("site-client"));

  // Direct fetches and a tier-backed proxy alike.
  const ProxyConfig configs[] = {proxy_config(), caching_config()};
  for (std::uint16_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(configs[i].edge_cache == nullptr ? "direct" : "tier-backed");
    auto proxy_flow = net.open_flow(client_host);
    ProxyHttpServer front(
        std::make_unique<GlobeDocProxy>(*proxy_flow, configs[i]));
    net::Endpoint proxy_ep{client_host, static_cast<std::uint16_t>(3128 + i)};
    net.bind(proxy_ep, front.handler());

    auto browser_flow = net.open_flow(client_host);
    http::HttpClient browser(*browser_flow);
    auto resp = browser.get(proxy_ep, "/globe/news.vu.nl/index.html");
    ASSERT_TRUE(resp.is_ok());
    EXPECT_NE(resp->status, 200);
    std::string body = util::to_string(resp->body);
    // Not one tampered byte may appear in what the browser renders.
    EXPECT_EQ(body.find("EVIL"), std::string::npos) << body;
    net.unbind(proxy_ep);
  }
  EXPECT_EQ(tier.element_cache().size(), 0u);
}

TEST_F(TaintBoundaryFixture, FailoverPastMaliciousReplicaServesVerified) {
  // Malicious and honest replicas registered at the same site: whichever
  // the proxy tries first, the result must be the authentic content, and
  // only verified bytes may enter the cache.
  add_malicious_replica(tree->endpoint("site-server"));

  GlobeDocProxy proxy(*client_flow, caching_config());
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(util::to_string(result->element.content),
            "<html><body>news story</body></html>");
  EXPECT_EQ(tier.element_cache().size(), 1u);

  // A cache hit must serve the same verified bytes.
  auto cached = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(cached.is_ok());
  EXPECT_TRUE(cached->metrics.served_from_edge_cache);
  EXPECT_EQ(util::to_string(cached->element.content),
            "<html><body>news story</body></html>");
}

}  // namespace
}  // namespace globe::globedoc
