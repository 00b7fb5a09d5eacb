// Peer-to-peer replica synchronization: pulling self-certifying state from
// untrusted peers is safe by construction.
#include "replication/refresher.hpp"

#include <gtest/gtest.h>

#include "globedoc/adversary.hpp"
#include "globedoc/proxy.hpp"
#include "tests/globedoc/operator_view.hpp"
#include "tests/globedoc/world_fixture.hpp"

namespace globe::replication {
namespace {

using globe::globedoc::testing::hosts;
using globe::globedoc::testing::WorldFixture;
using globedoc::ObjectServer;
using globedoc::Oid;
using util::ErrorCode;

struct RefresherFixture : WorldFixture {
  void SetUp() override {
    WorldFixture::SetUp();
    peer_server = std::make_unique<ObjectServer>("peer", 91);
    peer_server->register_with(peer_dispatcher);
    peer_ep = net::Endpoint{client_host, 8500};
    net.bind(peer_ep, peer_dispatcher.handler());
    pull_flow = net.open_flow(client_host);
  }

  Oid oid() { return owner->object().oid(); }

  std::unique_ptr<ObjectServer> peer_server;
  rpc::ServiceDispatcher peer_dispatcher;
  net::Endpoint peer_ep;
  std::unique_ptr<net::SimFlow> pull_flow;
};

TEST_F(RefresherFixture, PullsAndInstallsVerifiedState) {
  auto result = pull_replica(*pull_flow, server_ep, oid(), *peer_server, 0);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(result->installed);
  EXPECT_EQ(result->version, 1u);
  EXPECT_EQ(result->elements, 3u);
  EXPECT_TRUE(hosts(*peer_server, oid()));

  // The pulled replica serves clients end-to-end: register it and fetch.
  location::LocationClient locator(*pull_flow, tree->endpoint("site-client"));
  ASSERT_TRUE(locator.insert(tree->endpoint("site-client"), oid().view(), peer_ep)
                  .is_ok());
  globedoc::GlobeDocProxy proxy(*client_flow, proxy_config());
  auto fetched = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(fetched.is_ok());
}

TEST_F(RefresherFixture, RefusesStaleVersion) {
  auto first = pull_replica(*pull_flow, server_ep, oid(), *peer_server, 0);
  ASSERT_TRUE(first.is_ok());
  // Pulling again with local_version == peer version is a no-op error.
  auto again = pull_replica(*pull_flow, server_ep, oid(), *peer_server,
                            first->version);
  EXPECT_EQ(again.code(), ErrorCode::kInvalidArgument);
}

TEST_F(RefresherFixture, PullsNewerVersionAfterOwnerUpdate) {
  ASSERT_TRUE(pull_replica(*pull_flow, server_ep, oid(), *peer_server, 0).is_ok());
  owner->object().put_element(
      {"index.html", "text/html", util::to_bytes("<html>v2</html>")});
  ASSERT_TRUE(owner
                  ->refresh_replicas(*publish_flow, pull_flow->now(),
                                     util::seconds(3600))
                  .is_ok());
  auto result = pull_replica(*pull_flow, server_ep, oid(), *peer_server, 1);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->version, 2u);
}

// The pull path runs the limits that create and update run: a refreshed
// state over max_replica_bytes is refused and the old version stays hosted.
TEST_F(RefresherFixture, RefreshOverTheReplicaByteLimitIsRefused) {
  auto first = pull_replica(*pull_flow, server_ep, oid(), *peer_server, 0);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  globedoc::ResourceLimits limits;
  limits.max_replica_bytes = first->content_bytes;
  peer_server->set_resource_limits(limits);

  owner->object().put_element(
      {"index.html", "text/html",
       util::to_bytes("<html><body>news story, updated</body></html>")});
  ASSERT_TRUE(owner
                  ->refresh_replicas(*publish_flow, pull_flow->now(),
                                     util::seconds(3600))
                  .is_ok());
  auto refused =
      pull_replica(*pull_flow, server_ep, oid(), *peer_server, first->version);
  EXPECT_EQ(refused.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(refused.status().message(),
            "hosting refused: replica exceeds per-replica byte limit");

  auto report = peer_server->consistency_report();
  ASSERT_EQ(report.docs.size(), 1u);
  EXPECT_EQ(report.docs[0].epoch, first->version);
}

TEST_F(RefresherFixture, TamperingPeerRejected) {
  net::Endpoint evil{server_host, 8600};
  net.bind(evil, globedoc::tampering_element_attack(server_dispatcher.handler()));
  auto result = pull_replica(*pull_flow, evil, oid(), *peer_server, 0);
  EXPECT_EQ(result.code(), ErrorCode::kHashMismatch);
  EXPECT_FALSE(hosts(*peer_server, oid()));  // nothing corrupted was installed
}

TEST_F(RefresherFixture, CertificateForgingPeerRejected) {
  net::Endpoint evil{server_host, 8601};
  net.bind(evil, globedoc::certificate_forgery_attack(server_dispatcher.handler()));
  EXPECT_EQ(pull_replica(*pull_flow, evil, oid(), *peer_server, 0).code(),
            ErrorCode::kBadSignature);
}

TEST_F(RefresherFixture, KeySubstitutingPeerRejected) {
  auto attacker = globe::globedoc::testing::fixture_key(4242);
  net::Endpoint evil{server_host, 8602};
  net.bind(evil, globedoc::key_substitution_attack(server_dispatcher.handler(),
                                                   attacker.pub.serialize()));
  EXPECT_EQ(pull_replica(*pull_flow, evil, oid(), *peer_server, 0).code(),
            ErrorCode::kOidMismatch);
}

TEST_F(RefresherFixture, ExpiredPeerStateRejected) {
  pull_flow->advance(util::seconds(4000));  // past the 3600s validity
  EXPECT_EQ(pull_replica(*pull_flow, server_ep, oid(), *peer_server, 0).code(),
            ErrorCode::kExpired);
}

TEST_F(RefresherFixture, DeadPeerIsUnavailable) {
  net::Endpoint nowhere{server_host, 8603};
  EXPECT_EQ(pull_replica(*pull_flow, nowhere, oid(), *peer_server, 0).code(),
            ErrorCode::kUnavailable);
}

TEST_F(RefresherFixture, ChainedPullsBuildA_P2P_Cdn) {
  // origin -> peer1 -> peer2: state propagates through untrusted hops and
  // stays verifiable at the end of the chain.
  ASSERT_TRUE(pull_replica(*pull_flow, server_ep, oid(), *peer_server, 0).is_ok());

  ObjectServer peer2("peer2", 92);
  rpc::ServiceDispatcher d2;
  peer2.register_with(d2);
  net::Endpoint peer2_ep{infra_host, 8700};
  net.bind(peer2_ep, d2.handler());

  auto result = pull_replica(*pull_flow, peer_ep, oid(), peer2, 0);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(hosts(peer2, oid()));

  // A client served by peer2 still verifies everything successfully.
  location::LocationClient locator(*pull_flow, tree->endpoint("site-client"));
  ASSERT_TRUE(
      locator.insert(tree->endpoint("site-client"), oid().view(), peer2_ep).is_ok());
  globedoc::GlobeDocProxy proxy(*client_flow, proxy_config());
  EXPECT_TRUE(proxy.fetch(object_name, "story.txt").is_ok());
}

}  // namespace
}  // namespace globe::replication
