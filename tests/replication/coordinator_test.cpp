#include "replication/coordinator.hpp"

#include <gtest/gtest.h>

#include "globedoc/proxy.hpp"
#include "tests/globedoc/operator_view.hpp"
#include "tests/globedoc/world_fixture.hpp"

namespace globe::replication {
namespace {

using globe::globedoc::testing::hosts;
using globe::globedoc::testing::WorldFixture;
using util::ErrorCode;

// Extends the shared world with a second object server near the client that
// the replicator can populate on demand.
struct ReplicatorFixture : WorldFixture {
  void SetUp() override {
    WorldFixture::SetUp();
    client_server = std::make_unique<globedoc::ObjectServer>("srv-client", 77);
    client_server->authorize(owner->credential_key());
    client_server->register_with(client_server_dispatcher);
    client_server_ep = net::Endpoint{client_host, 8000};
    net.bind(client_server_ep, client_server_dispatcher.handler());

    DynamicReplicator::Config config;
    config.replicate_above_rps = 5.0;
    config.retire_below_rps = 0.5;
    config.window = util::seconds(60);
    replicator = std::make_unique<DynamicReplicator>(
        *owner, *publish_flow,
        std::vector<DynamicReplicator::Region>{
            {"client-region", client_server_ep, tree->endpoint("site-client")}},
        config);
  }

  std::unique_ptr<globedoc::ObjectServer> client_server;
  rpc::ServiceDispatcher client_server_dispatcher;
  net::Endpoint client_server_ep;
  std::unique_ptr<DynamicReplicator> replicator;
};

TEST_F(ReplicatorFixture, QuietRegionStaysUnreplicated) {
  util::SimTime now = util::seconds(100);
  replicator->record_access("client-region", now);
  ASSERT_TRUE(replicator->rebalance(now).is_ok());
  EXPECT_FALSE(replicator->has_replica("client-region"));
  EXPECT_EQ(replicator->replica_count(), 0u);
}

TEST_F(ReplicatorFixture, HotRegionGetsReplica) {
  util::SimTime now = util::seconds(100);
  // 600 accesses in the 60s window: 10 rps > 5 rps threshold.
  for (int i = 0; i < 600; ++i) {
    replicator->record_access("client-region", now + static_cast<std::uint64_t>(i) *
                                                        util::millis(100));
  }
  util::SimTime end = now + util::seconds(60);
  ASSERT_TRUE(replicator->rebalance(end).is_ok());
  EXPECT_TRUE(replicator->has_replica("client-region"));
  EXPECT_TRUE(hosts(*client_server, owner->object().oid()));

  // Clients at the site now resolve the local replica.
  globedoc::GlobeDocProxy proxy(*client_flow, proxy_config());
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok());
}

TEST_F(ReplicatorFixture, ColdRegionLosesReplica) {
  util::SimTime now = util::seconds(100);
  for (int i = 0; i < 600; ++i) {
    replicator->record_access("client-region", now + static_cast<std::uint64_t>(i) *
                                                        util::millis(100));
  }
  ASSERT_TRUE(replicator->rebalance(now + util::seconds(60)).is_ok());
  ASSERT_TRUE(replicator->has_replica("client-region"));

  // Hours later with no traffic: the window is empty, the replica retires.
  ASSERT_TRUE(replicator->rebalance(now + util::seconds(7200)).is_ok());
  EXPECT_FALSE(replicator->has_replica("client-region"));
  EXPECT_FALSE(hosts(*client_server, owner->object().oid()));
}

TEST_F(ReplicatorFixture, RateComputation) {
  util::SimTime now = util::seconds(1000);
  for (int i = 0; i < 120; ++i) {
    replicator->record_access("client-region",
                              now + static_cast<std::uint64_t>(i) * util::millis(500));
  }
  // 120 accesses over the last 60s window.
  EXPECT_NEAR(replicator->rate("client-region", now + util::seconds(60)), 2.0, 0.3);
  EXPECT_DOUBLE_EQ(replicator->rate("unknown", now), 0.0);
}

TEST_F(ReplicatorFixture, UnknownRegionRejected) {
  EXPECT_THROW(replicator->record_access("mars", 0), std::invalid_argument);
}

}  // namespace
}  // namespace globe::replication
