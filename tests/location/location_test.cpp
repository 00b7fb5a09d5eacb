#include <gtest/gtest.h>

#include "location/builder.hpp"
#include "location/tree.hpp"
#include "obs/metrics.hpp"
#include "net/simnet.hpp"
#include "util/serial.hpp"

namespace globe::location {
namespace {

using util::Bytes;
using util::ErrorCode;

Bytes oid(std::uint8_t fill) { return Bytes(20, fill); }

TEST(LookupReplyTest, RoundTrip) {
  LookupReply reply;
  reply.found = true;
  reply.addresses = {net::Endpoint{net::HostId{1}, 80}, net::Endpoint{net::HostId{2}, 81}};
  reply.has_parent = true;
  reply.parent = net::Endpoint{net::HostId{9}, 99};
  auto parsed = LookupReply::parse(reply.serialize());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_TRUE(parsed->found);
  EXPECT_EQ(parsed->addresses, reply.addresses);
  EXPECT_EQ(parsed->parent, reply.parent);
}

TEST(LookupReplyTest, GarbageRejected) {
  EXPECT_FALSE(LookupReply::parse(util::to_bytes("xx")).is_ok());
}

// World: root -> {region-eu -> {site-ams, site-paris}, region-us -> {site-ithaca}}.
struct TreeFixture : ::testing::Test {
  void SetUp() override {
    for (int i = 0; i < 6; ++i) {
      hosts.push_back(net.add_host({"h" + std::to_string(i), net::CpuModel{}}));
    }
    net.set_default_link({util::millis(5), 1e6});
    tree = std::make_unique<LocationTree>(
        net, std::vector<DomainSpec>{
                 {"root", "", hosts[0], 100, false},
                 {"region-eu", "root", hosts[1], 100, false},
                 {"region-us", "root", hosts[2], 100, false},
                 {"site-ams", "region-eu", hosts[3], 100, true},
                 {"site-paris", "region-eu", hosts[4], 100, true},
                 {"site-ithaca", "region-us", hosts[5], 100, true},
             });
    flow = net.open_flow(hosts[3]);
  }

  net::Endpoint replica(std::uint32_t host, std::uint16_t port) {
    return net::Endpoint{net::HostId{host}, port};
  }

  net::SimNet net;
  std::vector<net::HostId> hosts;
  std::unique_ptr<LocationTree> tree;
  std::unique_ptr<net::SimFlow> flow;
};

TEST_F(TreeFixture, InsertAndLookupAtSameSite) {
  LocationClient client(*flow, tree->endpoint("site-ams"));
  ASSERT_TRUE(client.insert(tree->endpoint("site-ams"), oid(1), replica(3, 8000)).is_ok());
  auto r = client.lookup(oid(1));
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0], replica(3, 8000));
  EXPECT_EQ(client.last_rings(), 1u);
}

TEST_F(TreeFixture, ExpandingRingFindsRemoteReplica) {
  LocationClient writer(*flow, tree->endpoint("site-ithaca"));
  ASSERT_TRUE(
      writer.insert(tree->endpoint("site-ithaca"), oid(2), replica(5, 8000)).is_ok());

  // Lookup from Amsterdam: site-ams (miss) -> region-eu (miss) -> root
  // (pointer via region-us) -> resolves down to the Ithaca address.
  LocationClient client(*flow, tree->endpoint("site-ams"));
  auto r = client.lookup(oid(2));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0], replica(5, 8000));
  EXPECT_EQ(client.last_rings(), 3u);
}

TEST_F(TreeFixture, RegionAnswersWithoutReachingRoot) {
  LocationClient writer(*flow, tree->endpoint("site-paris"));
  ASSERT_TRUE(
      writer.insert(tree->endpoint("site-paris"), oid(3), replica(4, 8000)).is_ok());

  LocationClient client(*flow, tree->endpoint("site-ams"));
  auto r = client.lookup(oid(3));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(client.last_rings(), 2u);  // site miss, region hit
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0], replica(4, 8000));
}

TEST_F(TreeFixture, MultipleReplicasAllReturned) {
  LocationClient client(*flow, tree->endpoint("site-ams"));
  ASSERT_TRUE(client.insert(tree->endpoint("site-ams"), oid(4), replica(3, 8000)).is_ok());
  ASSERT_TRUE(client.insert(tree->endpoint("site-ams"), oid(4), replica(3, 8001)).is_ok());
  ASSERT_TRUE(
      client.insert(tree->endpoint("site-paris"), oid(4), replica(4, 8000)).is_ok());

  // From Ithaca everything resolves through the root.
  LocationClient remote(*flow, tree->endpoint("site-ithaca"));
  auto r = remote.lookup(oid(4));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->size(), 3u);
}

TEST_F(TreeFixture, UnknownOidNotFound) {
  LocationClient client(*flow, tree->endpoint("site-ams"));
  auto r = client.lookup(oid(9));
  EXPECT_EQ(r.code(), ErrorCode::kNotFound);
  EXPECT_EQ(client.last_rings(), 3u);  // climbed to the root
}

TEST_F(TreeFixture, RemoveLastAddressCleansPointers) {
  LocationClient client(*flow, tree->endpoint("site-ams"));
  ASSERT_TRUE(client.insert(tree->endpoint("site-ams"), oid(5), replica(3, 8000)).is_ok());
  EXPECT_EQ(tree->node("root").records_stored(), 1u);
  ASSERT_TRUE(client.remove(tree->endpoint("site-ams"), oid(5), replica(3, 8000)).is_ok());
  EXPECT_EQ(tree->node("site-ams").records_stored(), 0u);
  EXPECT_EQ(tree->node("region-eu").records_stored(), 0u);
  EXPECT_EQ(tree->node("root").records_stored(), 0u);
  EXPECT_EQ(client.lookup(oid(5)).code(), ErrorCode::kNotFound);
}

TEST_F(TreeFixture, RemoveOneOfTwoKeepsPointer) {
  LocationClient client(*flow, tree->endpoint("site-ams"));
  ASSERT_TRUE(client.insert(tree->endpoint("site-ams"), oid(6), replica(3, 8000)).is_ok());
  ASSERT_TRUE(client.insert(tree->endpoint("site-ams"), oid(6), replica(3, 8001)).is_ok());
  ASSERT_TRUE(client.remove(tree->endpoint("site-ams"), oid(6), replica(3, 8000)).is_ok());
  auto r = client.lookup(oid(6));
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0], replica(3, 8001));
}

TEST_F(TreeFixture, RemoveUnknownAddressFails) {
  LocationClient client(*flow, tree->endpoint("site-ams"));
  EXPECT_EQ(client.remove(tree->endpoint("site-ams"), oid(7), replica(3, 1)).code(),
            ErrorCode::kNotFound);
}

TEST_F(TreeFixture, InsertAtInteriorNodeRejected) {
  LocationClient client(*flow, tree->endpoint("site-ams"));
  EXPECT_EQ(client.insert(tree->endpoint("region-eu"), oid(8), replica(1, 1)).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(TreeFixture, TruncatedPayloadsAnswerProtocol) {
  // Each request cut one byte short: every method a site node serves, and
  // the three an interior node decodes (it refuses Insert and Remove before
  // decoding), answer PROTOCOL.
  util::Writer by_oid, by_address, by_child;
  by_oid.bytes(oid(13));
  by_address.bytes(oid(13));
  by_address.u32(3);
  by_address.u16(8000);
  by_child.bytes(oid(13));
  by_child.str("site-ams");
  auto cut_call = [&](const char* node, std::uint16_t method, const util::Writer& w) {
    Bytes payload = w.buffer();
    payload.pop_back();
    rpc::RpcClient client(*flow, tree->endpoint(node));
    return client.call(rpc::kLocationService, method, payload).code();
  };
  const std::pair<std::uint16_t, const util::Writer*> site_methods[] = {
      {kLookup, &by_oid},
      {kInsert, &by_address},
      {kRemove, &by_address},
      {kInsertPointer, &by_child},
      {kRemovePointer, &by_child}};
  for (auto [method, w] : site_methods) {
    EXPECT_EQ(cut_call("site-ams", method, *w), ErrorCode::kProtocol) << method;
  }
  const std::pair<std::uint16_t, const util::Writer*> interior_methods[] = {
      {kLookup, &by_oid}, {kInsertPointer, &by_child}, {kRemovePointer, &by_child}};
  for (auto [method, w] : interior_methods) {
    EXPECT_EQ(cut_call("region-eu", method, *w), ErrorCode::kProtocol) << method;
  }
  EXPECT_EQ(tree->node("site-ams").records_stored(), 0u);
}

TEST_F(TreeFixture, PointerFromNonChildRefusedAndNothingStored) {
  // A node takes pointers only from its own children: region-us is not a
  // child of region-eu, and a site has no children at all.
  util::Writer by_child;
  by_child.bytes(oid(14));
  by_child.str("region-us");
  for (const char* node : {"region-eu", "site-ams"}) {
    rpc::RpcClient client(*flow, tree->endpoint(node));
    auto r = client.call(rpc::kLocationService, kInsertPointer, by_child.buffer());
    EXPECT_EQ(r.code(), ErrorCode::kInvalidArgument) << node;
    EXPECT_EQ(r.status().message(),
              "'region-us' is not a child of '" + std::string(node) + "'");
    EXPECT_EQ(tree->node(node).records_stored(), 0u) << node;
  }
  EXPECT_EQ(tree->node("root").records_stored(), 0u);
  LocationClient client(*flow, tree->endpoint("site-ams"));
  EXPECT_EQ(client.lookup(oid(14)).code(), ErrorCode::kNotFound);
}

TEST_F(TreeFixture, RemovePointerForUnheldEntryChangesNothing) {
  LocationClient client(*flow, tree->endpoint("site-ams"));
  ASSERT_TRUE(
      client.insert(tree->endpoint("site-ams"), oid(15), replica(3, 8000)).is_ok());
  auto remove_pointer = [&](const char* node, std::uint8_t fill, const char* child) {
    util::Writer w;
    w.bytes(oid(fill));
    w.str(child);
    rpc::RpcClient rpc_client(*flow, tree->endpoint(node));
    return rpc_client.call(rpc::kLocationService, kRemovePointer, w.buffer()).code();
  };
  // An OID not held, a child not holding it, domains that are not children
  // (a site has none).
  EXPECT_EQ(remove_pointer("region-eu", 16, "site-ams"), ErrorCode::kOk);
  EXPECT_EQ(remove_pointer("region-eu", 15, "site-paris"), ErrorCode::kOk);
  EXPECT_EQ(remove_pointer("region-eu", 15, "region-us"), ErrorCode::kOk);
  EXPECT_EQ(remove_pointer("root", 15, "region-us"), ErrorCode::kOk);
  EXPECT_EQ(remove_pointer("site-ams", 15, "site-ams"), ErrorCode::kOk);
  EXPECT_EQ(tree->node("site-ams").records_stored(), 1u);
  EXPECT_EQ(tree->node("region-eu").records_stored(), 1u);
  EXPECT_EQ(tree->node("root").records_stored(), 1u);

  LocationClient remote(*flow, tree->endpoint("site-ithaca"));
  auto r = remote.lookup(oid(15));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(*r, std::vector<net::Endpoint>{replica(3, 8000)});
}

TEST(LocationOrderTest, InteriorLookupListsChildrenInNameOrder) {
  // site-a's endpoint sorts after site-b's, and so does its replica's
  // address: only child-name order puts site-a's address first.  The proxy
  // dials replicas in the order a lookup lists them.
  net::SimNet net;
  std::vector<net::HostId> h;
  for (int i = 0; i < 3; ++i) {
    h.push_back(net.add_host({"h" + std::to_string(i), net::CpuModel{}}));
  }
  net.set_default_link({util::millis(5), 1e6});
  LocationTree tree(net, {{"region", "", h[0], 100, false},
                          {"site-a", "region", h[2], 100, true},
                          {"site-b", "region", h[1], 100, true}});
  ASSERT_LT(tree.endpoint("site-b"), tree.endpoint("site-a"));
  const net::Endpoint at_a{net::HostId{7}, 9000}, at_b{net::HostId{6}, 9000};
  auto flow = net.open_flow(h[0]);
  LocationClient client(*flow, tree.endpoint("region"));
  ASSERT_TRUE(client.insert(tree.endpoint("site-b"), oid(17), at_b).is_ok());
  ASSERT_TRUE(client.insert(tree.endpoint("site-a"), oid(17), at_a).is_ok());
  auto r = client.lookup(oid(17));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(client.last_rings(), 1u);
  EXPECT_EQ(*r, (std::vector<net::Endpoint>{at_a, at_b}));
}

TEST_F(TreeFixture, LocalLookupCheaperThanGlobal) {
  LocationClient setup(*flow, tree->endpoint("site-ams"));
  ASSERT_TRUE(setup.insert(tree->endpoint("site-ams"), oid(10), replica(3, 1)).is_ok());
  ASSERT_TRUE(
      setup.insert(tree->endpoint("site-ithaca"), oid(11), replica(5, 1)).is_ok());

  auto local_flow = net.open_flow(hosts[3]);
  LocationClient local(*local_flow, tree->endpoint("site-ams"));
  ASSERT_TRUE(local.lookup(oid(10)).is_ok());

  auto global_flow = net.open_flow(hosts[3]);
  LocationClient global(*global_flow, tree->endpoint("site-ams"));
  ASSERT_TRUE(global.lookup(oid(11)).is_ok());

  EXPECT_LT(local_flow->now(), global_flow->now());
}

TEST_F(TreeFixture, LookupCountersAdvance) {
  // Each ring's location.node.lookups series, as /metrics shows it.
  auto lookups = [](const char* domain) {
    return obs::global_registry()
        .counter("location.node.lookups", {{"domain", domain}})
        .value();
  };
  const std::uint64_t site = lookups("site-ams");
  const std::uint64_t region = lookups("region-eu");
  const std::uint64_t root = lookups("root");
  LocationClient client(*flow, tree->endpoint("site-ams"));
  (void)client.lookup(oid(12));
  EXPECT_EQ(lookups("site-ams") - site, 1u);
  EXPECT_EQ(lookups("region-eu") - region, 1u);
  EXPECT_EQ(lookups("root") - root, 1u);
}

TEST(LocationBuilderTest, RejectsBadSpecs) {
  net::SimNet net;
  auto h = net.add_host({"h", net::CpuModel{}});
  EXPECT_THROW(LocationTree(net, {{"a", "missing-parent", h, 1, true}}),
               std::invalid_argument);
  EXPECT_THROW(LocationTree(net, {{"a", "", h, 1, false}, {"a", "", h, 2, false}}),
               std::invalid_argument);
}


TEST(LocationAdversarialTest, ParentLoopIsBounded) {
  // A malicious node that always reports itself as its own parent must not
  // trap the expanding-ring client in an infinite climb.
  net::SimNet net;
  auto h = net.add_host({"evil", net::CpuModel{}});
  net::Endpoint evil{h, 100};
  net.bind(evil, [evil](net::ServerContext&,
                        util::BytesView) -> util::Result<util::Bytes> {
    LookupReply reply;
    reply.found = false;
    reply.has_parent = true;
    reply.parent = evil;  // the loop
    return reply.serialize();
  });
  auto flow = net.open_flow(h);
  LocationClient client(*flow, evil);
  auto r = client.lookup(oid(1));
  EXPECT_EQ(r.code(), ErrorCode::kProtocol);
  EXPECT_EQ(client.last_rings(), 16u);  // guard fired
}

TEST(LocationAdversarialTest, GarbageReplyRejected) {
  net::SimNet net;
  auto h = net.add_host({"evil", net::CpuModel{}});
  net::Endpoint evil{h, 100};
  net.bind(evil, [](net::ServerContext&,
                    util::BytesView) -> util::Result<util::Bytes> {
    return util::to_bytes("not a lookup reply");
  });
  auto flow = net.open_flow(h);
  LocationClient client(*flow, evil);
  EXPECT_EQ(client.lookup(oid(2)).code(), ErrorCode::kProtocol);
}


TEST(LookupReplyTest, RejectsForgedAddressCount) {
  // Four bytes of header claiming 2^32-1 addresses must die at the protocol
  // ceiling, not in addresses.reserve().
  util::Writer w;
  w.u8(1);             // found
  w.u32(0xFFFFFFFFu);  // forged address count
  auto reply = LookupReply::parse(w.take());
  EXPECT_FALSE(reply.is_ok());
  EXPECT_EQ(reply.code(), ErrorCode::kProtocol);
}

// An interior node stops at the reply ceiling too: with 40 addresses at each
// of two sites, their parent answers the first site's 40 and the first 24
// the second site returned, not 80 that LookupReply::parse refuses.
TEST_F(TreeFixture, InteriorLookupStopsAtTheReplyCeiling) {
  LocationClient client(*flow, tree->endpoint("site-ams"));
  for (std::uint16_t i = 0; i < 40; ++i) {
    const auto port = static_cast<std::uint16_t>(8000 + i);
    ASSERT_TRUE(client.insert(tree->endpoint("site-ams"), oid(43), replica(3, port)).is_ok());
    ASSERT_TRUE(client.insert(tree->endpoint("site-paris"), oid(43), replica(4, port)).is_ok());
  }
  auto lookup_at = [&](const char* domain) {
    auto domain_flow = net.open_flow(hosts[0]);
    LocationClient at(*domain_flow, tree->endpoint(domain));
    return at.lookup(oid(43));
  };
  auto ams = lookup_at("site-ams");
  auto paris = lookup_at("site-paris");
  ASSERT_TRUE(ams.is_ok() && paris.is_ok());
  ASSERT_EQ(ams->size(), 40u);
  ASSERT_EQ(paris->size(), 40u);
  std::vector<net::Endpoint> expected = *ams;
  expected.insert(expected.end(), paris->begin(), paris->begin() + 24);
  auto root = lookup_at("root");
  ASSERT_TRUE(root.is_ok()) << root.status().to_string();
  EXPECT_EQ(root->size(), kMaxLookupAddresses);
  EXPECT_EQ(*root, expected);
}

TEST_F(TreeFixture, InsertCapMatchesReplyCeiling) {
  // A site node stops registering addresses at kMaxLookupAddresses: past
  // that, its lookup replies would exceed the ceiling every compliant
  // client enforces at parse time.
  LocationClient client(*flow, tree->endpoint("site-ams"));
  for (std::size_t i = 0; i < kMaxLookupAddresses; ++i) {
    ASSERT_TRUE(client
                    .insert(tree->endpoint("site-ams"), oid(42),
                            replica(3, static_cast<std::uint16_t>(8000 + i)))
                    .is_ok());
  }
  auto over = client.insert(tree->endpoint("site-ams"), oid(42),
                            replica(3, 9999));
  EXPECT_FALSE(over.is_ok());
  EXPECT_EQ(over.code(), ErrorCode::kInvalidArgument);
  // Re-registering an address that is already present is still fine.
  EXPECT_TRUE(client.insert(tree->endpoint("site-ams"), oid(42),
                            replica(3, 8000))
                  .is_ok());
  auto r = client.lookup(oid(42));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->size(), kMaxLookupAddresses);
}
}  // namespace
}  // namespace globe::location
