// Resource-managed hosting (paper §6 extension): keystore + quotas +
// leases on the object server's admin interface.
#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "globedoc/server.hpp"
#include "net/simnet.hpp"
#include "rpc/rpc.hpp"
#include "tests/globedoc/operator_view.hpp"

namespace globe::globedoc {
namespace {

using testing::hosts;
using testing::replica_count;
using util::Bytes;
using util::ErrorCode;

crypto::RsaKeyPair host_key(std::uint64_t seed) {
  auto rng = crypto::HmacDrbg::from_seed(seed);
  return crypto::rsa_generate(512, rng);
}

ReplicaState make_state(std::uint64_t seed, std::size_t content_bytes,
                        Oid* oid_out = nullptr) {
  GlobeDocObject object(host_key(seed));
  object.put_element({"data.bin", "application/octet-stream",
                      Bytes(content_bytes, 0x11)});
  object.sign_state(0, util::seconds(1u << 30));
  if (oid_out != nullptr) *oid_out = object.oid();
  return object.snapshot();
}

struct HostingFixture : ::testing::Test {
  void SetUp() override {
    host = net.add_host({"server", net::CpuModel{}});
    owner_key = host_key(71);
    server = std::make_unique<ObjectServer>("srv", 72);
    server->authorize(owner_key.pub);
    server->register_with(dispatcher);
    ep = net::Endpoint{host, 8000};
    net.bind(ep, dispatcher.handler());
    flow = net.open_flow(host);
  }

  AdminClient admin() { return AdminClient(*flow, ep, owner_key); }

  net::SimNet net;
  net::HostId host;
  crypto::RsaKeyPair owner_key;
  std::unique_ptr<ObjectServer> server;
  rpc::ServiceDispatcher dispatcher;
  net::Endpoint ep;
  std::unique_ptr<net::SimFlow> flow;
};

/// A GetElement of `oid`'s data.bin, as a client reads it.
util::Status read_element(net::Transport& transport, const net::Endpoint& ep,
                          const Oid& oid) {
  rpc::RpcClient reader(transport, ep);
  util::Writer req;
  req.raw(oid.to_bytes());
  req.str("data.bin");
  return reader.call(rpc::kGlobeDocAccess, kGetElement, req.buffer()).status();
}

TEST_F(HostingFixture, UnlimitedByDefault) {
  // No limits: every create is hosted, and its lease never lapses.
  auto client = admin();
  Oid oid;
  ASSERT_TRUE(client.create_replica(make_state(90, 200'000, &oid)).is_ok());
  EXPECT_TRUE(client.create_replica(make_state(91, 200'000)).is_ok());
  EXPECT_TRUE(client.create_replica(make_state(92, 200'000)).is_ok());
  EXPECT_EQ(replica_count(*server), 3u);
  flow->advance(util::seconds(1u << 20));
  EXPECT_TRUE(read_element(*flow, ep, oid).is_ok());
  EXPECT_EQ(replica_count(*server), 3u);
}

TEST_F(HostingFixture, CreateRefusedBeyondTotalBytes) {
  ResourceLimits limits;
  limits.max_total_bytes = 10'000;
  server->set_resource_limits(limits);
  auto client = admin();

  EXPECT_TRUE(client.create_replica(make_state(100, 6'000)).is_ok());
  auto refused = client.create_replica(make_state(101, 6'000));
  EXPECT_EQ(refused.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(replica_count(*server), 1u);
}

TEST_F(HostingFixture, CreateRefusedBeyondReplicaSlots) {
  ResourceLimits limits;
  limits.max_replicas = 2;
  server->set_resource_limits(limits);
  auto client = admin();
  EXPECT_TRUE(client.create_replica(make_state(110, 100)).is_ok());
  EXPECT_TRUE(client.create_replica(make_state(111, 100)).is_ok());
  EXPECT_EQ(client.create_replica(make_state(112, 100)).code(),
            ErrorCode::kUnavailable);
}

TEST_F(HostingFixture, PerReplicaByteLimit) {
  ResourceLimits limits;
  limits.max_replica_bytes = 1'000;
  server->set_resource_limits(limits);
  auto client = admin();
  EXPECT_TRUE(client.create_replica(make_state(120, 900)).is_ok());
  EXPECT_EQ(client.create_replica(make_state(121, 1'100)).code(),
            ErrorCode::kUnavailable);
}

TEST_F(HostingFixture, UpdateDoesNotDoubleCountOwnUsage) {
  ResourceLimits limits;
  limits.max_total_bytes = 10'000;
  server->set_resource_limits(limits);
  auto client = admin();

  Oid oid;
  GlobeDocObject object(host_key(130));
  object.put_element({"data.bin", "application/octet-stream", Bytes(8'000, 1)});
  object.sign_state(0, util::seconds(1u << 30));
  oid = object.oid();
  EXPECT_TRUE(client.create_replica(object.snapshot()).is_ok());

  // Updating the same replica to 9 KB fits (its old 8 KB are released).
  object.put_element({"data.bin", "application/octet-stream", Bytes(9'000, 2)});
  object.sign_state(0, util::seconds(1u << 30));
  EXPECT_TRUE(client.update_replica(object.snapshot()).is_ok());

  // But 11 KB does not.
  object.put_element({"data.bin", "application/octet-stream", Bytes(11'000, 3)});
  object.sign_state(0, util::seconds(1u << 30));
  EXPECT_EQ(client.update_replica(object.snapshot()).code(),
            ErrorCode::kUnavailable);
}

TEST_F(HostingFixture, LeaseExpiryStopsServingAndEvicts) {
  ResourceLimits limits;
  limits.max_lease = util::seconds(100);
  server->set_resource_limits(limits);
  auto client = admin();

  Oid oid;
  ReplicaState state = make_state(140, 500, &oid);
  ASSERT_TRUE(client.create_replica(state).is_ok());
  EXPECT_TRUE(hosts(*server, oid));

  // Within the lease, the replica serves.
  EXPECT_TRUE(read_element(*flow, ep, oid).is_ok());

  // Past the lease, the read that first sees the lapse is refused and
  // evicts the state.
  flow->advance(util::seconds(200));
  EXPECT_EQ(read_element(*flow, ep, oid).code(), ErrorCode::kNotFound);
  EXPECT_FALSE(hosts(*server, oid));
  EXPECT_EQ(replica_count(*server), 0u);
}

TEST_F(HostingFixture, LapsedLeaseFreesItsSlotForTheNextCreate) {
  // No read ever touches the lapsed replica: the create's capacity decision
  // must still not count it, and /replicaz must stop listing it.
  ResourceLimits limits;
  limits.max_replicas = 1;
  limits.max_lease = util::seconds(100);
  server->set_resource_limits(limits);
  auto client = admin();

  Oid first, second;
  ASSERT_TRUE(client.create_replica(make_state(160, 100, &first)).is_ok());
  flow->advance(util::seconds(200));
  ASSERT_TRUE(client.create_replica(make_state(161, 100, &second)).is_ok());

  EXPECT_FALSE(hosts(*server, first));
  EXPECT_TRUE(hosts(*server, second));
  obs::ConsistencyReport report = server->consistency_report();
  ASSERT_EQ(report.docs.size(), 1u);
  EXPECT_EQ(report.docs[0].oid, second.to_bytes());
}

TEST_F(HostingFixture, RefusedCreateCanBeRetriedElsewhere) {
  // After a refusal the creator slot must not be poisoned: a later create
  // within limits succeeds.
  ResourceLimits limits;
  limits.max_replica_bytes = 1'000;
  server->set_resource_limits(limits);
  auto client = admin();
  Oid oid;
  GlobeDocObject object(host_key(150));
  object.put_element({"big", "application/octet-stream", Bytes(2'000, 1)});
  object.sign_state(0, util::seconds(1u << 30));
  oid = object.oid();
  EXPECT_EQ(client.create_replica(object.snapshot()).code(), ErrorCode::kUnavailable);

  object.put_element({"big", "application/octet-stream", Bytes(500, 1)});
  object.sign_state(0, util::seconds(1u << 30));
  EXPECT_TRUE(client.create_replica(object.snapshot()).is_ok());
  EXPECT_TRUE(hosts(*server, oid));
}

TEST_F(HostingFixture, PulledInstallOverALapsedReplicaServes) {
  // The pull path's install over an admin-created replica whose lease has
  // lapsed: the lapsed entry is evicted first, so the pulled state is
  // hosted afresh and the next read is served.
  ResourceLimits limits;
  limits.max_lease = util::seconds(100);
  server->set_resource_limits(limits);
  Oid oid;
  ReplicaState state = make_state(170, 500, &oid);
  ASSERT_TRUE(admin().create_replica(state).is_ok());
  flow->advance(util::seconds(200));
  ASSERT_TRUE(server->install_replica_unchecked(state, flow->now()).is_ok());
  EXPECT_TRUE(read_element(*flow, ep, oid).is_ok());
  EXPECT_TRUE(hosts(*server, oid));
}

TEST_F(HostingFixture, LapsedLeaseFreesItsSlotForAPulledInstall) {
  // As for a create: a pulled install's capacity decision must not count a
  // replica whose lease has lapsed.
  ResourceLimits limits;
  limits.max_replicas = 1;
  limits.max_lease = util::seconds(100);
  server->set_resource_limits(limits);
  Oid first, second;
  ASSERT_TRUE(admin().create_replica(make_state(180, 100, &first)).is_ok());
  flow->advance(util::seconds(200));
  ASSERT_TRUE(server->install_replica_unchecked(make_state(181, 100, &second),
                                                flow->now())
                  .is_ok());
  EXPECT_FALSE(hosts(*server, first));
  EXPECT_TRUE(hosts(*server, second));
}

TEST_F(HostingFixture, CreateOverAPulledReplicaTakesItsSlot) {
  // The pulled copy is replaced, not counted beside its replacement; the
  // created replica is then its creator's to delete.
  ResourceLimits limits;
  limits.max_replicas = 1;
  server->set_resource_limits(limits);
  Oid oid;
  ReplicaState state = make_state(190, 100, &oid);
  ASSERT_TRUE(server->install_replica_unchecked(state, flow->now()).is_ok());
  ASSERT_TRUE(admin().create_replica(state).is_ok());
  EXPECT_EQ(replica_count(*server), 1u);
  EXPECT_TRUE(admin().delete_replica(oid).is_ok());
  EXPECT_EQ(replica_count(*server), 0u);
}

TEST_F(HostingFixture, CreateOverAPulledReplicaReusesItsBytes) {
  ResourceLimits limits;
  limits.max_total_bytes = 150;
  server->set_resource_limits(limits);
  Oid oid;
  ReplicaState state = make_state(191, 100, &oid);
  ASSERT_TRUE(server->install_replica_unchecked(state, flow->now()).is_ok());
  ASSERT_TRUE(admin().create_replica(state).is_ok());
  EXPECT_TRUE(hosts(*server, oid));
  EXPECT_EQ(replica_count(*server), 1u);
}

TEST_F(HostingFixture, PulledReplicaLeaseLapses) {
  // A pull of an OID the server does not host starts its lease.
  ResourceLimits limits;
  limits.max_lease = util::seconds(100);
  server->set_resource_limits(limits);
  Oid oid;
  ASSERT_TRUE(
      server->install_replica_unchecked(make_state(192, 500, &oid), flow->now()).is_ok());
  flow->advance(util::seconds(90));
  EXPECT_TRUE(read_element(*flow, ep, oid).is_ok());

  flow->advance(util::seconds(20));
  EXPECT_TRUE(hosts(*server, oid));  // no read has seen the lapse yet
  EXPECT_EQ(read_element(*flow, ep, oid).code(), ErrorCode::kNotFound);
  EXPECT_FALSE(hosts(*server, oid));
}

TEST_F(HostingFixture, PullOverACreatedReplicaKeepsItsCreator) {
  Oid oid;
  ReplicaState state = make_state(193, 500, &oid);
  ASSERT_TRUE(admin().create_replica(state).is_ok());
  ASSERT_TRUE(server->install_replica_unchecked(state, flow->now()).is_ok());
  EXPECT_TRUE(admin().delete_replica(oid).is_ok());
  EXPECT_FALSE(hosts(*server, oid));
}

TEST_F(HostingFixture, PullsDoNotExtendACreatedReplicasLease) {
  // A pull over a hosted replica refreshes its content only: the lease its
  // create started still ends at create + max_lease.
  ResourceLimits limits;
  limits.max_lease = util::seconds(100);
  server->set_resource_limits(limits);
  Oid oid;
  ReplicaState state = make_state(194, 500, &oid);
  ASSERT_TRUE(admin().create_replica(state).is_ok());
  flow->advance(util::seconds(60));
  ASSERT_TRUE(server->install_replica_unchecked(state, flow->now()).is_ok());
  flow->advance(util::seconds(30));
  EXPECT_TRUE(read_element(*flow, ep, oid).is_ok());
  flow->advance(util::seconds(30));
  EXPECT_EQ(read_element(*flow, ep, oid).code(), ErrorCode::kNotFound);
  EXPECT_FALSE(hosts(*server, oid));
}

}  // namespace
}  // namespace globe::globedoc
