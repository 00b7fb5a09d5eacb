#include "globedoc/server.hpp"

#include <gtest/gtest.h>

#include <map>

#include "crypto/drbg.hpp"
#include "net/simnet.hpp"
#include "net/tcp.hpp"
#include "obs/profile.hpp"
#include "tests/globedoc/operator_view.hpp"
#include "util/serial.hpp"

namespace globe::globedoc {
namespace {

using testing::hosts;
using testing::replica_count;
using util::Bytes;
using util::ErrorCode;
using util::to_bytes;

crypto::RsaKeyPair make_key(std::uint64_t seed) {
  auto rng = crypto::HmacDrbg::from_seed(seed);
  return crypto::rsa_generate(512, rng);
}

struct ServerFixture : ::testing::Test {
  void SetUp() override {
    host = net.add_host({"server", net::CpuModel{}});
    client_host = net.add_host({"client", net::CpuModel{}});
    net.set_default_link({util::millis(2), 1e6});

    owner_key = make_key(51);
    intruder_key = make_key(52);
    server = std::make_unique<ObjectServer>("srv", 7);
    server->authorize(owner_key.pub);
    server->register_with(dispatcher);
    ep = net::Endpoint{host, 8000};
    net.bind(ep, dispatcher.handler());

    GlobeDocObject object(make_key(53));
    object.put_element({"index.html", "text/html", to_bytes("<html/>")});
    object.put_element({"data.bin", "application/octet-stream", Bytes(64, 1)});
    object.sign_state(0, util::seconds(3600));
    oid = object.oid();
    state_v1 = object.snapshot();

    object.put_element({"extra.txt", "text/plain", to_bytes("more")});
    object.sign_state(0, util::seconds(3600));
    state_v2 = object.snapshot();

    flow = net.open_flow(client_host);
  }

  net::SimNet net;
  net::HostId host, client_host;
  crypto::RsaKeyPair owner_key, intruder_key;
  std::unique_ptr<ObjectServer> server;
  rpc::ServiceDispatcher dispatcher;
  net::Endpoint ep;
  Oid oid;
  ReplicaState state_v1, state_v2;
  std::unique_ptr<net::SimFlow> flow;
};

TEST_F(ServerFixture, AuthorizedCreateUpdateDelete) {
  AdminClient admin(*flow, ep, owner_key);
  EXPECT_TRUE(admin.create_replica(state_v1).is_ok());
  EXPECT_TRUE(hosts(*server, oid));
  EXPECT_EQ(replica_count(*server), 1u);

  EXPECT_TRUE(admin.update_replica(state_v2).is_ok());
  auto report = server->consistency_report();
  ASSERT_EQ(report.docs.size(), 1u);
  EXPECT_EQ(report.docs[0].oid, oid.to_bytes());
  EXPECT_EQ(report.docs[0].epoch, state_v2.certificate.version());

  EXPECT_TRUE(admin.delete_replica(oid).is_ok());
  EXPECT_FALSE(hosts(*server, oid));
}

TEST_F(ServerFixture, CreateAndUpdateProfiledUnderTheirRpcFrames) {
  // Like every bound method, create and update are profiled in the server's
  // own registry under their server span's name, their RSA verifies (the
  // admin signature's and the state's) included.
  obs::ProfileRegistry profile;
  ObjectServer profiled("profiled", 9, nullptr, &profile);
  profiled.authorize(owner_key.pub);
  rpc::ServiceDispatcher profiled_dispatcher;
  profiled.register_with(profiled_dispatcher);
  net::Endpoint profiled_ep{host, 8002};
  net.bind(profiled_ep, profiled_dispatcher.handler());
  AdminClient admin(*flow, profiled_ep, owner_key);
  ASSERT_TRUE(admin.create_replica(state_v1).is_ok());
  ASSERT_TRUE(admin.update_replica(state_v2).is_ok());

  std::map<std::string, std::uint64_t> verifies_under;  // root frame -> calls
  for (const obs::ProfileSample& s : profile.snapshot().samples) {
    if (s.leaf == "rsa_verify") {
      verifies_under[s.stack.substr(0, s.stack.find(';'))] += s.stat.calls;
    }
  }
  EXPECT_GT(verifies_under["rpc:gd.admin/2"], 0u);
  EXPECT_GT(verifies_under["rpc:gd.admin/3"], 0u);
}

TEST_F(ServerFixture, UnauthorizedKeyRejected) {
  AdminClient intruder(*flow, ep, intruder_key);
  EXPECT_EQ(intruder.create_replica(state_v1).code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(replica_count(*server), 0u);
}

TEST_F(ServerFixture, RevokedKeyRejected) {
  // Revoking a key is restarting the server with a keystore that no longer
  // lists it: the key's challenge answers are then refused.
  AdminClient admin(*flow, ep, owner_key);
  EXPECT_TRUE(admin.create_replica(state_v1).is_ok());
  ObjectServer restarted("srv", 8);
  restarted.authorize(intruder_key.pub);
  rpc::ServiceDispatcher restarted_dispatcher;
  restarted.register_with(restarted_dispatcher);
  net::Endpoint restarted_ep{host, 8001};
  net.bind(restarted_ep, restarted_dispatcher.handler());
  AdminClient revoked(*flow, restarted_ep, owner_key);
  EXPECT_EQ(revoked.create_replica(state_v2).code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(replica_count(restarted), 0u);
}

TEST_F(ServerFixture, OnlyCreatorMayManageReplica) {
  crypto::RsaKeyPair second_owner = make_key(54);
  server->authorize(second_owner.pub);

  AdminClient creator(*flow, ep, owner_key);
  EXPECT_TRUE(creator.create_replica(state_v1).is_ok());

  AdminClient other(*flow, ep, second_owner);
  EXPECT_EQ(other.update_replica(state_v2).code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(other.delete_replica(oid).code(), ErrorCode::kPermissionDenied);
  EXPECT_TRUE(hosts(*server, oid));
}

TEST_F(ServerFixture, DuplicateCreateRejected) {
  AdminClient admin(*flow, ep, owner_key);
  EXPECT_TRUE(admin.create_replica(state_v1).is_ok());
  EXPECT_EQ(admin.create_replica(state_v1).code(), ErrorCode::kAlreadyExists);
}

TEST_F(ServerFixture, UpdateNonexistentRejected) {
  AdminClient admin(*flow, ep, owner_key);
  EXPECT_EQ(admin.update_replica(state_v1).code(), ErrorCode::kNotFound);
  EXPECT_EQ(admin.delete_replica(oid).code(), ErrorCode::kNotFound);
}

TEST_F(ServerFixture, VersionRollbackRefused) {
  AdminClient admin(*flow, ep, owner_key);
  EXPECT_TRUE(admin.create_replica(state_v2).is_ok());  // version 2
  EXPECT_EQ(admin.update_replica(state_v1).code(), ErrorCode::kInvalidArgument);
}

TEST_F(ServerFixture, NonceReplayRejected) {
  AdminClient admin(*flow, ep, owner_key);
  EXPECT_TRUE(admin.create_replica(state_v1).is_ok());

  // Hand-roll a request reusing a consumed nonce.
  rpc::RpcClient rpc_client(*flow, ep);
  auto nonce_raw = rpc_client.call(rpc::kGlobeDocAdmin, kChallenge, Bytes{});
  ASSERT_TRUE(nonce_raw.is_ok());
  util::Reader r(*nonce_raw);
  Bytes nonce = r.bytes();

  util::Writer payload;
  payload.bytes(state_v2.serialize());
  util::Writer signed_data;
  signed_data.str("update");
  signed_data.bytes(nonce);
  signed_data.raw(payload.buffer());
  Bytes sig = crypto::rsa_sign_sha256(owner_key.priv, signed_data.buffer());

  util::Writer req;
  req.bytes(nonce);
  req.bytes(owner_key.pub.serialize());
  req.bytes(sig);
  req.raw(payload.buffer());

  // First use succeeds, replay fails.
  EXPECT_TRUE(rpc_client.call(rpc::kGlobeDocAdmin, kUpdateReplica, req.buffer()).is_ok());
  EXPECT_EQ(rpc_client.call(rpc::kGlobeDocAdmin, kUpdateReplica, req.buffer()).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(ServerFixture, BadSignatureRejected) {
  rpc::RpcClient rpc_client(*flow, ep);
  auto nonce_raw = rpc_client.call(rpc::kGlobeDocAdmin, kChallenge, Bytes{});
  ASSERT_TRUE(nonce_raw.is_ok());
  util::Reader r(*nonce_raw);
  Bytes nonce = r.bytes();

  util::Writer payload;
  payload.bytes(state_v1.serialize());
  Bytes bogus_sig(64, 0xAA);

  util::Writer req;
  req.bytes(nonce);
  req.bytes(owner_key.pub.serialize());
  req.bytes(bogus_sig);
  req.raw(payload.buffer());
  EXPECT_EQ(rpc_client.call(rpc::kGlobeDocAdmin, kCreateReplica, req.buffer()).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(ServerFixture, AccessInterfaceServesElements) {
  ASSERT_TRUE(server->install_replica_unchecked(state_v1).is_ok());
  rpc::RpcClient client(*flow, ep);
  auto series = [](const char* name) {
    return obs::global_registry().counter(name, {{"server", "srv"}}).value();
  };
  const std::uint64_t elements = series("object_server.elements_served");
  const std::uint64_t bytes = series("object_server.bytes_served");

  util::Writer req;
  req.raw(oid.to_bytes());
  req.str("index.html");
  auto raw = client.call(rpc::kGlobeDocAccess, kGetElement, req.buffer());
  ASSERT_TRUE(raw.is_ok());
  auto el = PageElement::parse(*raw);
  ASSERT_TRUE(el.is_ok());
  EXPECT_EQ(el->name, "index.html");
  EXPECT_EQ(series("object_server.elements_served") - elements, 1u);
  EXPECT_EQ(series("object_server.bytes_served") - bytes, el->content.size());
}

/// Serves a dispatcher call made directly, outside any transport.
class DirectContext final : public net::ServerContext {
 public:
  explicit DirectContext(net::Transport& transport) : transport_(transport) {}
  util::SimTime now() const override { return transport_.now(); }
  void charge(net::CpuOp, std::uint64_t) override {}
  net::HostId local_host() const override { return transport_.local_host(); }
  net::Transport& transport() override { return transport_; }

 private:
  net::Transport& transport_;
};

Bytes get_element_request(const Oid& oid, const std::string& name) {
  util::Writer w;
  w.u16(rpc::kGlobeDocAccess);
  w.u16(kGetElement);
  w.raw(oid.to_bytes());
  w.str(name);
  return w.take();
}

TEST_F(ServerFixture, GetElementReplyOutlivesAnUpdate) {
  // A GetElement reply views the element in the hosted snapshot it was
  // served from.  An update installed before the reply is sent replaces the
  // snapshot but leaves the reply's bytes as they were; the next request
  // is served from the update.
  GlobeDocObject object(make_key(53));
  object.put_element({"index.html", "text/html", Bytes(4096, 'a')});
  object.sign_state(0, util::seconds(3600));
  const PageElement old_element = *object.element("index.html");
  AdminClient admin(*flow, ep, owner_key);
  ASSERT_TRUE(admin.create_replica(object.snapshot()).is_ok());

  DirectContext ctx(*flow);
  const Bytes request = get_element_request(object.oid(), "index.html");
  auto before = dispatcher.dispatch(ctx, request);
  ASSERT_TRUE(before.is_ok());
  EXPECT_EQ(before->tail().size(), old_element.content.size());  // a view, not a copy

  object.put_element({"index.html", "text/html", Bytes(4096, 'b')});
  object.sign_state(0, util::seconds(3600));
  ASSERT_TRUE(admin.update_replica(object.snapshot()).is_ok());

  EXPECT_EQ(std::move(*before).flatten(), old_element.serialize());
  auto after = dispatcher.dispatch(ctx, request);
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(std::move(*after).flatten(), object.element("index.html")->serialize());
}

TEST_F(ServerFixture, SimNetAndTcpServeIdenticalGetElementBytes) {
  ASSERT_TRUE(server->install_replica_unchecked(state_v1).is_ok());
  net::TcpServer tcp(0, dispatcher.handler(), /*workers=*/1);
  net::TcpTransport tcp_transport;
  util::Writer req;
  req.raw(oid.to_bytes());
  req.str("data.bin");

  auto over_sim = rpc::RpcClient(*flow, ep).call(rpc::kGlobeDocAccess, kGetElement,
                                                 req.buffer());
  auto over_tcp = rpc::RpcClient(tcp_transport, net::Endpoint{net::HostId{0}, tcp.port()})
                      .call(rpc::kGlobeDocAccess, kGetElement, req.buffer());
  ASSERT_TRUE(over_sim.is_ok());
  ASSERT_TRUE(over_tcp.is_ok());
  EXPECT_EQ(*over_sim, *over_tcp);
  EXPECT_EQ(*over_sim, state_v1.find("data.bin")->serialize());
}

TEST_F(ServerFixture, AccessUnknownElementOrObject) {
  ASSERT_TRUE(server->install_replica_unchecked(state_v1).is_ok());
  rpc::RpcClient client(*flow, ep);

  util::Writer missing_el;
  missing_el.raw(oid.to_bytes());
  missing_el.str("ghost.html");
  EXPECT_EQ(client.call(rpc::kGlobeDocAccess, kGetElement, missing_el.buffer()).code(),
            ErrorCode::kNotFound);

  util::Writer missing_obj;
  missing_obj.raw(Bytes(Oid::kSize, 0xEE));
  missing_obj.str("index.html");
  EXPECT_EQ(client.call(rpc::kGlobeDocAccess, kGetElement, missing_obj.buffer()).code(),
            ErrorCode::kNotFound);
}

TEST_F(ServerFixture, SecurityInterfaceServesKeyAndCerts) {
  ASSERT_TRUE(server->install_replica_unchecked(state_v1).is_ok());
  rpc::RpcClient client(*flow, ep);
  util::Writer req;
  req.raw(oid.to_bytes());

  auto key_raw = client.call(rpc::kGlobeDocSecurity, kGetPublicKey, req.buffer());
  ASSERT_TRUE(key_raw.is_ok());
  auto key = crypto::RsaPublicKey::parse(*key_raw);
  ASSERT_TRUE(key.is_ok());
  EXPECT_TRUE(oid.matches_key(*key));

  auto cert_raw = client.call(rpc::kGlobeDocSecurity, kGetIntegrityCert, req.buffer());
  ASSERT_TRUE(cert_raw.is_ok());
  auto cert = IntegrityCertificate::parse(*cert_raw);
  ASSERT_TRUE(cert.is_ok());
  EXPECT_TRUE(cert->verify_signature(*key));

  auto ids_raw = client.call(rpc::kGlobeDocSecurity, kGetIdentityCerts, req.buffer());
  ASSERT_TRUE(ids_raw.is_ok());
  util::Reader r(*ids_raw);
  EXPECT_EQ(r.u32(), 0u);  // no identity certs in this fixture object
}

// Verify-before-use regressions (paper §3.2.2): admin auth proves WHO
// pushed a state, not that the state is internally authentic.  The server
// must run ReplicaState::verify() before anything reaches the hosted set.

TEST_F(ServerFixture, TamperedStatePushRejected) {
  AdminClient admin(*flow, ep, owner_key);
  ReplicaState tampered = state_v1;
  ASSERT_FALSE(tampered.elements.empty());
  tampered.elements[0].content.push_back(0xEE);  // flipped after signing
  EXPECT_FALSE(admin.create_replica(tampered).is_ok());
  EXPECT_FALSE(hosts(*server, oid));
  EXPECT_EQ(replica_count(*server), 0u);
}

TEST_F(ServerFixture, WrongKeyStatePushRejected) {
  // public_key swapped out: SHA-1(key) no longer matches the certificate's
  // OID, so the self-certifying check must fail even though the pusher is
  // fully authorized.
  AdminClient admin(*flow, ep, owner_key);
  ReplicaState forged = state_v1;
  forged.public_key = intruder_key.pub.serialize();
  EXPECT_FALSE(admin.create_replica(forged).is_ok());
  EXPECT_FALSE(hosts(*server, oid));
}

TEST_F(ServerFixture, TamperedUpdateKeepsPriorState) {
  AdminClient admin(*flow, ep, owner_key);
  ASSERT_TRUE(admin.create_replica(state_v1).is_ok());
  ReplicaState tampered = state_v2;
  ASSERT_FALSE(tampered.elements.empty());
  tampered.elements[0].content.clear();
  EXPECT_FALSE(admin.update_replica(tampered).is_ok());
  // The verified v1 replica must still be hosted, untouched.
  EXPECT_TRUE(hosts(*server, oid));
  EXPECT_EQ(replica_count(*server), 1u);
}

TEST_F(ServerFixture, MalformedPayloadsRejected) {
  rpc::RpcClient client(*flow, ep);
  EXPECT_EQ(client.call(rpc::kGlobeDocAccess, kGetElement, to_bytes("xx")).code(),
            ErrorCode::kProtocol);
  EXPECT_EQ(client.call(rpc::kGlobeDocAdmin, kChallenge, to_bytes("payload")).code(),
            ErrorCode::kProtocol);
  // Every other method, on a payload too short for its first field.
  const std::pair<std::uint16_t, std::uint16_t> methods[] = {
      {rpc::kGlobeDocAccess, kFetchMany},
      {rpc::kGlobeDocSecurity, kGetPublicKey},
      {rpc::kGlobeDocSecurity, kGetIntegrityCert},
      {rpc::kGlobeDocSecurity, kGetIdentityCerts},
      {rpc::kGlobeDocAdmin, kCreateReplica},
      {rpc::kGlobeDocAdmin, kUpdateReplica},
      {rpc::kGlobeDocAdmin, kDeleteReplica}};
  for (auto [service, method] : methods) {
    EXPECT_EQ(client.call(service, method, to_bytes("xx")).code(), ErrorCode::kProtocol)
        << service << "/" << method;
  }
}

TEST_F(ServerFixture, RetiredAdminMethodsAnswerNotFound) {
  // The admin ids on the wire: Challenge..DeleteReplica are 1..4, and 5 and
  // 6 (ListReplicas and Negotiate) are retired, never reused.
  EXPECT_EQ(kChallenge, 1);
  EXPECT_EQ(kCreateReplica, 2);
  EXPECT_EQ(kUpdateReplica, 3);
  EXPECT_EQ(kDeleteReplica, 4);
  rpc::RpcClient client(*flow, ep);
  for (std::uint16_t method : {5, 6}) {
    auto reply = client.call(rpc::kGlobeDocAdmin, method, Bytes{});
    EXPECT_EQ(reply.code(), ErrorCode::kNotFound);
    EXPECT_EQ(reply.status().message(),
              "no method " + std::to_string(rpc::kGlobeDocAdmin) + "/" +
                  std::to_string(method));
  }
}

}  // namespace
}  // namespace globe::globedoc
