#include "globedoc/proxy.hpp"

#include <gtest/gtest.h>

#include "globedoc/adversary.hpp"
#include "http/static_server.hpp"
#include "tests/globedoc/operator_view.hpp"
#include "tests/globedoc/world_fixture.hpp"

namespace globe::globedoc {
namespace {

using globe::globedoc::testing::WorldFixture;
using globe::globedoc::testing::fixture_key;
using util::Bytes;
using util::ErrorCode;
using util::to_bytes;

struct ProxyFixture : WorldFixture {};

TEST_F(ProxyFixture, SecureFetchSucceeds) {
  GlobeDocProxy proxy(*client_flow, proxy_config());
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(util::to_string(result->element.content),
            "<html><body>news story</body></html>");
  EXPECT_EQ(result->element.content_type, "text/html");
  ASSERT_TRUE(result->certified_as.has_value());
  EXPECT_EQ(*result->certified_as, "Vrije Universiteit");
  EXPECT_EQ(result->metrics.replicas_tried, 1u);
  EXPECT_GT(result->metrics.total_time, 0u);
  EXPECT_GT(result->metrics.security_time, 0u);
  EXPECT_LT(result->metrics.security_time, result->metrics.total_time);
  EXPECT_EQ(result->metrics.content_bytes, result->element.content.size());
}

TEST_F(ProxyFixture, FetchViaHybridUrl) {
  GlobeDocProxy proxy(*client_flow, proxy_config());
  auto result = proxy.fetch_url("http://globe/news.vu.nl/story.txt");
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(util::to_string(result->element.content), "full text");
}

TEST_F(ProxyFixture, AllElementsFetchable) {
  GlobeDocProxy proxy(*client_flow, proxy_config());
  for (const char* name : {"index.html", "logo.gif", "story.txt"}) {
    EXPECT_TRUE(proxy.fetch(object_name, name).is_ok()) << name;
  }
}

TEST_F(ProxyFixture, UnknownObjectNameNotFound) {
  GlobeDocProxy proxy(*client_flow, proxy_config());
  EXPECT_EQ(proxy.fetch("ghost.vu.nl", "index.html").code(), ErrorCode::kNotFound);
}

TEST_F(ProxyFixture, UnknownElementNotFound) {
  GlobeDocProxy proxy(*client_flow, proxy_config());
  EXPECT_EQ(proxy.fetch(object_name, "missing.html").code(), ErrorCode::kNotFound);
}

TEST_F(ProxyFixture, NoIdentityRequestedMeansNoCertifiedAs) {
  GlobeDocProxy proxy(*client_flow, proxy_config(/*identity=*/false));
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok());
  EXPECT_FALSE(result->certified_as.has_value());
}

TEST_F(ProxyFixture, RequireIdentityFailsWithoutTrustedCa) {
  ProxyConfig config = proxy_config(/*identity=*/false);
  config.request_identity = true;
  config.require_identity = true;  // trust store is empty
  GlobeDocProxy proxy(*client_flow, config);
  EXPECT_EQ(proxy.fetch(object_name, "index.html").code(),
            ErrorCode::kUntrustedIssuer);
}

TEST_F(ProxyFixture, IdentityCertificateFloodIsRejectedBeforeVerifying) {
  // A replica serves more certificates than any honest state may carry, all
  // naming the user's trusted CA but signed by an impostor key: each one
  // verified would cost an RSA verify.  The over-long list is malformed, so
  // none is verified and binding fails over on the missing identity.
  CertificateAuthority impostor(ca->name(), fixture_key(666));
  ReplicaState state = owner->object().snapshot();
  state.identity_certs.assign(
      2 * kMaxIdentityCerts,
      impostor.issue("Evil Corp", owner->object().oid(), util::seconds(5000)));
  ASSERT_TRUE(object_server->install_replica_unchecked(state, client_flow->now()).is_ok());

  obs::ProfileRegistry profile;
  ProxyConfig config = proxy_config();
  config.require_identity = true;
  config.profile = &profile;
  GlobeDocProxy proxy(*client_flow, config);
  EXPECT_EQ(proxy.fetch(object_name, "index.html").code(),
            ErrorCode::kUntrustedIssuer);

  std::uint64_t identity_stages = 0, identity_verifies = 0;
  for (const obs::ProfileSample& s : profile.snapshot().samples) {
    if (s.leaf == FetchStage::kIdentity) identity_stages += s.stat.calls;
    if (s.leaf == "rsa_verify" &&
        (";" + s.stack + ";").find(";identity;") != std::string::npos) {
      identity_verifies += s.stat.calls;
    }
  }
  EXPECT_EQ(identity_stages, 1u);
  EXPECT_LE(identity_verifies, kMaxIdentityCerts);
}

// --- Adversarial replicas ----------------------------------------------

struct AdversaryFixture : ProxyFixture {
  /// Replaces the (only) registered contact address with an attacker
  /// endpoint wrapping the honest server.
  void route_through(net::MessageHandler attack_handler, std::uint16_t port) {
    attack_ep = net::Endpoint{server_host, port};
    net.bind(attack_ep, std::move(attack_handler));
    location::LocationClient locator(*publish_flow, tree->endpoint("site-server"));
    ASSERT_TRUE(locator
                    .remove(tree->endpoint("site-server"),
                            owner->object().oid().view(), server_ep)
                    .is_ok());
    ASSERT_TRUE(locator
                    .insert(tree->endpoint("site-server"),
                            owner->object().oid().view(), attack_ep)
                    .is_ok());
  }

  net::Endpoint attack_ep;
};

TEST_F(AdversaryFixture, TamperedElementDetected) {
  route_through(tampering_element_attack(server_dispatcher.handler()), 6000);
  GlobeDocProxy proxy(*client_flow, proxy_config());
  EXPECT_EQ(proxy.fetch(object_name, "index.html").code(), ErrorCode::kHashMismatch);
}

TEST_F(AdversaryFixture, SwappedElementDetected) {
  route_through(element_swap_attack(server_dispatcher.handler(), "story.txt"), 6001);
  GlobeDocProxy proxy(*client_flow, proxy_config());
  EXPECT_EQ(proxy.fetch(object_name, "index.html").code(), ErrorCode::kWrongElement);
}

TEST_F(AdversaryFixture, ForgedCertificateDetected) {
  route_through(certificate_forgery_attack(server_dispatcher.handler()), 6002);
  GlobeDocProxy proxy(*client_flow, proxy_config());
  EXPECT_EQ(proxy.fetch(object_name, "index.html").code(), ErrorCode::kBadSignature);
}

TEST_F(AdversaryFixture, SubstitutedKeyDetected) {
  auto attacker_key = fixture_key(666);
  route_through(
      key_substitution_attack(server_dispatcher.handler(),
                              attacker_key.pub.serialize()),
      6003);
  GlobeDocProxy proxy(*client_flow, proxy_config());
  EXPECT_EQ(proxy.fetch(object_name, "index.html").code(), ErrorCode::kOidMismatch);
}

TEST_F(AdversaryFixture, FallbackToHonestReplica) {
  // Attacker address sorts before the honest one, so it is tried first.
  net::Endpoint evil{server_host, 6004};
  net.bind(evil, tampering_element_attack(server_dispatcher.handler()));
  location::LocationClient locator(*publish_flow, tree->endpoint("site-server"));
  ASSERT_TRUE(locator
                  .insert(tree->endpoint("site-server"),
                          owner->object().oid().view(), evil)
                  .is_ok());

  GlobeDocProxy proxy(*client_flow, proxy_config());
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->metrics.replicas_tried, 2u);
  EXPECT_EQ(util::to_string(result->element.content),
            "<html><body>news story</body></html>");
}

TEST_F(AdversaryFixture, MisdirectingLocationServiceCausesOnlyDenialOfService) {
  // The client's local site lies: it points at an endpoint where nothing
  // (or an attacker who cannot forge) lives.
  net::Endpoint nowhere{server_host, 6005};
  net.unbind(tree->endpoint("site-client"));
  net.bind(tree->endpoint("site-client"),
           misdirecting_location_node({nowhere}));

  GlobeDocProxy proxy(*client_flow, proxy_config());
  auto result = proxy.fetch(object_name, "index.html");
  EXPECT_FALSE(result.is_ok());
  // Denial of service, not content corruption.
  EXPECT_EQ(result.code(), ErrorCode::kUnavailable);
}

// --- Freshness and update propagation ----------------------------------

TEST_F(ProxyFixture, ExpiredReplicaStateRejected) {
  client_flow->advance(util::seconds(4000));  // past the 3600s validity
  GlobeDocProxy proxy(*client_flow, proxy_config());
  EXPECT_EQ(proxy.fetch(object_name, "index.html").code(), ErrorCode::kExpired);
}

TEST_F(ProxyFixture, OwnerRefreshRestoresFreshness) {
  client_flow->advance(util::seconds(4000));
  publish_flow->set_time(client_flow->now());
  ASSERT_TRUE(owner
                  ->refresh_replicas(*publish_flow, client_flow->now(),
                                     util::seconds(3600))
                  .is_ok());
  GlobeDocProxy proxy(*client_flow, proxy_config());
  EXPECT_TRUE(proxy.fetch(object_name, "index.html").is_ok());
}

TEST_F(ProxyFixture, ContentUpdatePropagates) {
  owner->object().put_element(
      {"index.html", "text/html", to_bytes("<html>v2</html>")});
  ASSERT_TRUE(owner->refresh_replicas(*publish_flow, client_flow->now(),
                                      util::seconds(3600))
                  .is_ok());
  GlobeDocProxy proxy(*client_flow, proxy_config());
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(util::to_string(result->element.content), "<html>v2</html>");
}

// --- Binding cache -------------------------------------------------------

TEST_F(ProxyFixture, BindingCacheSpeedsUpSecondFetch) {
  ProxyConfig config = proxy_config();
  config.cache_bindings = true;
  GlobeDocProxy proxy(*client_flow, config);

  util::SimTime t0 = client_flow->now();
  auto first = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(first.is_ok());
  EXPECT_FALSE(first->metrics.used_cached_binding);
  util::SimDuration first_duration = client_flow->now() - t0;

  util::SimTime t1 = client_flow->now();
  auto second = proxy.fetch(object_name, "story.txt");
  ASSERT_TRUE(second.is_ok());
  EXPECT_TRUE(second->metrics.used_cached_binding);
  EXPECT_LT(client_flow->now() - t1, first_duration / 2);
  EXPECT_EQ(proxy.binding_count(), 1u);
}

TEST_F(ProxyFixture, StaleCachedBindingRecovers) {
  ProxyConfig config = proxy_config();
  config.cache_bindings = true;
  GlobeDocProxy proxy(*client_flow, config);
  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());

  // Owner replaces the content; the cached certificate no longer matches.
  owner->object().put_element(
      {"index.html", "text/html", to_bytes("<html>new</html>")});
  ASSERT_TRUE(owner->refresh_replicas(*publish_flow, client_flow->now(),
                                      util::seconds(3600))
                  .is_ok());

  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_FALSE(result->metrics.used_cached_binding);  // cache was invalidated
  EXPECT_EQ(util::to_string(result->element.content), "<html>new</html>");
}

// --- Browser-facing behaviour --------------------------------------------

TEST_F(ProxyFixture, BrowserRequestForHybridUrl) {
  GlobeDocProxy proxy(*client_flow, proxy_config());
  http::HttpRequest req;
  req.target = "/globe/news.vu.nl/index.html";
  auto resp = proxy.handle_browser_request(req);
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.headers.get("Content-Type"), "text/html");
  EXPECT_EQ(resp.headers.get("X-GlobeDoc-Certified-As"), "Vrije Universiteit");
}

TEST_F(ProxyFixture, BrowserSeesSecurityCheckFailedPage) {
  client_flow->advance(util::seconds(4000));  // force EXPIRED
  GlobeDocProxy proxy(*client_flow, proxy_config());
  http::HttpRequest req;
  req.target = "/globe/news.vu.nl/index.html";
  auto resp = proxy.handle_browser_request(req);
  EXPECT_EQ(resp.status, 403);
  EXPECT_NE(util::to_string(resp.body).find("Security Check Failed"),
            std::string::npos);
  EXPECT_NE(util::to_string(resp.body).find("EXPIRED"), std::string::npos);
}

TEST_F(ProxyFixture, BrowserPlainHttpPassthrough) {
  http::StaticHttpServer origin;
  origin.put_file("/plain.html", to_bytes("<html>plain old web</html>"));
  net::Endpoint origin_ep{infra_host, 8080};
  net.bind(origin_ep, origin.handler());

  GlobeDocProxy proxy(*client_flow, proxy_config());
  proxy.set_origin_fallback(origin_ep);

  http::HttpRequest req;
  req.target = "/plain.html";
  auto resp = proxy.handle_browser_request(req);
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(util::to_string(resp.body), "<html>plain old web</html>");
}

TEST_F(ProxyFixture, BrowserPassthroughWithoutOriginIs502) {
  GlobeDocProxy proxy(*client_flow, proxy_config());
  http::HttpRequest req;
  req.target = "/plain.html";
  EXPECT_EQ(proxy.handle_browser_request(req).status, 502);
}

// --- Owner workflows -----------------------------------------------------

TEST_F(ProxyFixture, UnpublishRemovesReplica) {
  ASSERT_TRUE(owner
                  ->unpublish_replica(*publish_flow, server_ep,
                                      tree->endpoint("site-server"))
                  .is_ok());
  EXPECT_FALSE(testing::hosts(*object_server, owner->object().oid()));
  GlobeDocProxy proxy(*client_flow, proxy_config());
  EXPECT_EQ(proxy.fetch(object_name, "index.html").code(), ErrorCode::kNotFound);
}

TEST_F(ProxyFixture, PublishRollsBackWhenLocationRegistrationFails) {
  // Second replica on a new server, but pointed at a dead location site.
  ObjectServer second("srv-2", 43);
  second.authorize(owner->credential_key());
  rpc::ServiceDispatcher d2;
  second.register_with(d2);
  net::Endpoint second_ep{infra_host, 9000};
  net.bind(second_ep, d2.handler());

  net::Endpoint dead_site{infra_host, 9999};  // nothing bound
  ReplicaState state = owner->sign_and_snapshot(publish_flow->now(),
                                                util::seconds(3600));
  auto status =
      owner->publish_replica(*publish_flow, second_ep, dead_site, state);
  EXPECT_FALSE(status.is_ok());
  EXPECT_FALSE(testing::hosts(second, owner->object().oid()));  // rolled back
  EXPECT_EQ(owner->replicas().size(), 1u);
}

TEST_F(ProxyFixture, SecondReplicaServesClients) {
  // Publish a second replica at the client's own site: lookups now find it
  // in the first ring.
  ObjectServer second("srv-2", 44);
  second.authorize(owner->credential_key());
  rpc::ServiceDispatcher d2;
  second.register_with(d2);
  net::Endpoint second_ep{client_host, 9000};
  net.bind(second_ep, d2.handler());

  ReplicaState state = owner->sign_and_snapshot(publish_flow->now(),
                                                util::seconds(3600));
  ASSERT_TRUE(owner
                  ->publish_replica(*publish_flow, second_ep,
                                    tree->endpoint("site-client"), state)
                  .is_ok());
  EXPECT_EQ(owner->replicas().size(), 2u);

  const std::uint64_t first_before = testing::elements_served("srv-1");
  const std::uint64_t second_before = testing::elements_served("srv-2");
  GlobeDocProxy proxy(*client_flow, proxy_config());
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok());
  // Served locally: the whole fetch is fast (no 5ms WAN hops for content).
  EXPECT_TRUE(testing::elements_served("srv-2") - second_before == 1 ||
              testing::elements_served("srv-1") - first_before == 1);
}

}  // namespace
}  // namespace globe::globedoc
