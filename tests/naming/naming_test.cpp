#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "naming/records.hpp"
#include "naming/resolver.hpp"
#include "naming/service.hpp"
#include "net/simnet.hpp"
#include "obs/metrics.hpp"

namespace globe::naming {
namespace {

using util::Bytes;
using util::ErrorCode;
using util::to_bytes;

crypto::RsaKeyPair make_key(std::uint64_t seed) {
  auto rng = crypto::HmacDrbg::from_seed(seed);
  return crypto::rsa_generate(512, rng);
}

Bytes fake_oid(std::uint8_t fill) { return Bytes(kOidSize, fill); }

TEST(NameInZoneTest, Matching) {
  EXPECT_TRUE(name_in_zone("news.vu.nl", ""));
  EXPECT_TRUE(name_in_zone("news.vu.nl", "nl"));
  EXPECT_TRUE(name_in_zone("news.vu.nl", "vu.nl"));
  EXPECT_TRUE(name_in_zone("vu.nl", "vu.nl"));
  EXPECT_FALSE(name_in_zone("news.vu.nl", "u.nl"));  // partial label
  EXPECT_FALSE(name_in_zone("news.vu.nl", "org"));
  EXPECT_FALSE(name_in_zone("nl", "vu.nl"));
}

TEST(RecordsTest, OidRecordRoundTrip) {
  OidRecord rec;
  rec.name = "doc.vu.nl";
  rec.oid = fake_oid(7);
  rec.expires = util::seconds(3600);
  auto parsed = OidRecord::parse(rec.serialize());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->name, rec.name);
  EXPECT_EQ(parsed->oid, rec.oid);
  EXPECT_EQ(parsed->expires, rec.expires);
}

TEST(RecordsTest, OidRecordRejectsBadOidSize) {
  OidRecord rec;
  rec.name = "x";
  rec.oid = Bytes(19, 0);
  EXPECT_FALSE(OidRecord::parse(rec.serialize()).is_ok());
}

TEST(RecordsTest, DelegationRoundTrip) {
  DelegationRecord rec;
  rec.zone = "vu.nl";
  rec.child_public_key = to_bytes("keybytes");
  rec.name_server = net::Endpoint{net::HostId{3}, 53};
  rec.expires = 12345;
  auto parsed = DelegationRecord::parse(rec.serialize());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->zone, "vu.nl");
  EXPECT_EQ(parsed->name_server, rec.name_server);
}

TEST(RecordsTest, CrossTypeParseRejected) {
  OidRecord oid_rec;
  oid_rec.name = "a";
  oid_rec.oid = fake_oid(1);
  EXPECT_FALSE(DelegationRecord::parse(oid_rec.serialize()).is_ok());
  EXPECT_FALSE(OidRecord::parse(to_bytes("junk")).is_ok());
}

TEST(ZoneAuthorityTest, AddAndLookup) {
  ZoneAuthority zone("vu.nl", make_key(1));
  zone.add_oid("doc.vu.nl", fake_oid(1), 1000);
  auto reply = zone.lookup("doc.vu.nl");
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply->kind, NamingReply::Kind::kAnswer);
  // The signature must verify under the zone key.
  EXPECT_TRUE(crypto::rsa_verify_sha256(zone.public_key(), reply->blob.record,
                                        reply->blob.signature));
}

TEST(ZoneAuthorityTest, RejectsNamesOutsideZone) {
  ZoneAuthority zone("vu.nl", make_key(2));
  EXPECT_THROW(zone.add_oid("other.org", fake_oid(1), 1000), std::invalid_argument);
  EXPECT_THROW(zone.add_oid("x", Bytes(5, 0), 1000), std::invalid_argument);
}

TEST(ZoneAuthorityTest, UnknownNameNotFound) {
  ZoneAuthority zone("vu.nl", make_key(3));
  EXPECT_EQ(zone.lookup("nope.vu.nl").code(), ErrorCode::kNotFound);
  EXPECT_EQ(zone.lookup("outside.org").code(), ErrorCode::kNotFound);
}

TEST(ZoneAuthorityTest, RemoveName) {
  ZoneAuthority zone("vu.nl", make_key(4));
  zone.add_oid("doc.vu.nl", fake_oid(1), 1000);
  zone.remove_name("doc.vu.nl");
  EXPECT_EQ(zone.lookup("doc.vu.nl").code(), ErrorCode::kNotFound);
}

TEST(ZoneAuthorityTest, ReferralForDelegatedSuffix) {
  ZoneAuthority root("", make_key(5));
  auto child_key = make_key(6);
  root.delegate("vu.nl", child_key.pub, net::Endpoint{net::HostId{1}, 53}, 1000);
  auto reply = root.lookup("doc.vu.nl");
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply->kind, NamingReply::Kind::kReferral);
  auto del = DelegationRecord::parse(reply->blob.record);
  ASSERT_TRUE(del.is_ok());
  EXPECT_EQ(del->zone, "vu.nl");
}

TEST(ZoneAuthorityTest, LongestDelegationWins) {
  ZoneAuthority root("", make_key(7));
  root.delegate("nl", make_key(8).pub, net::Endpoint{net::HostId{1}, 53}, 1000);
  root.delegate("vu.nl", make_key(9).pub, net::Endpoint{net::HostId{2}, 53}, 1000);
  auto reply = root.lookup("doc.vu.nl");
  ASSERT_TRUE(reply.is_ok());
  auto del = DelegationRecord::parse(reply->blob.record);
  ASSERT_TRUE(del.is_ok());
  EXPECT_EQ(del->zone, "vu.nl");
}

TEST(ZoneAuthorityTest, SelfDelegationRejected) {
  ZoneAuthority zone("vu.nl", make_key(10));
  EXPECT_THROW(
      zone.delegate("vu.nl", make_key(11).pub, net::Endpoint{net::HostId{0}, 1}, 1),
      std::invalid_argument);
}

// --- End-to-end resolution over the simulated network -----------------

// Zone-record signatures a resolver has checked, as its series counts them.
std::uint64_t signatures_verified(obs::MetricsRegistry& registry) {
  return registry.counter("naming.signatures_verified").value();
}

struct ResolverFixture : ::testing::Test {
  void SetUp() override {
    ns_host = net.add_host({"nameserver", net::CpuModel{}});
    client_host = net.add_host({"client", net::CpuModel{}});
    net.set_link(ns_host, client_host, {util::millis(2), 1e6});

    root_key = make_key(100);
    nl_key = make_key(101);
    vu_key = make_key(102);

    root = std::make_shared<ZoneAuthority>("", root_key);
    nl = std::make_shared<ZoneAuthority>("nl", nl_key);
    vu = std::make_shared<ZoneAuthority>("vu.nl", vu_key);

    root_ep = net::Endpoint{ns_host, 53};
    nl_ep = net::Endpoint{ns_host, 54};
    vu_ep = net::Endpoint{ns_host, 55};

    root->delegate("nl", nl_key.pub, nl_ep, util::seconds(1000));
    nl->delegate("vu.nl", vu_key.pub, vu_ep, util::seconds(1000));
    vu->add_oid("doc.vu.nl", fake_oid(0xAB), util::seconds(1000));

    bind_zone(root, root_ep, root_dispatcher, root_server);
    bind_zone(nl, nl_ep, nl_dispatcher, nl_server);
    bind_zone(vu, vu_ep, vu_dispatcher, vu_server);

    flow = net.open_flow(client_host);
  }

  void bind_zone(std::shared_ptr<ZoneAuthority> zone, net::Endpoint ep,
                 rpc::ServiceDispatcher& dispatcher, NamingServer& server) {
    server.add_zone(std::move(zone));
    server.register_with(dispatcher);
    net.bind(ep, dispatcher.handler());
  }

  net::SimNet net;
  net::HostId ns_host, client_host;
  crypto::RsaKeyPair root_key, nl_key, vu_key;
  std::shared_ptr<ZoneAuthority> root, nl, vu;
  net::Endpoint root_ep, nl_ep, vu_ep;
  rpc::ServiceDispatcher root_dispatcher, nl_dispatcher, vu_dispatcher;
  NamingServer root_server, nl_server, vu_server;
  std::unique_ptr<net::SimFlow> flow;
};

TEST_F(ResolverFixture, ResolvesThroughDelegationChain) {
  obs::MetricsRegistry registry;
  SecureResolver resolver(*flow, root_ep, root_key.pub, &registry);
  auto oid = resolver.resolve("doc.vu.nl");
  ASSERT_TRUE(oid.is_ok()) << oid.status().to_string();
  EXPECT_EQ(*oid, fake_oid(0xAB));
  EXPECT_EQ(signatures_verified(registry), 3u);  // root, nl, vu.nl
}

TEST_F(ResolverFixture, DirectAnswerFromRootZone) {
  root->add_oid("tld-doc", fake_oid(0x11), util::seconds(1000));
  obs::MetricsRegistry registry;
  SecureResolver resolver(*flow, root_ep, root_key.pub, &registry);
  auto oid = resolver.resolve("tld-doc");
  ASSERT_TRUE(oid.is_ok());
  EXPECT_EQ(*oid, fake_oid(0x11));
  EXPECT_EQ(signatures_verified(registry), 1u);
}

TEST_F(ResolverFixture, TruncatedPayloadsAnswerProtocol) {
  // Both naming methods, each request cut one byte short.
  util::Writer lookup, zone_key;
  lookup.str("vu.nl");
  lookup.str("doc.vu.nl");
  zone_key.str("vu.nl");
  rpc::RpcClient client(*flow, vu_ep);
  const std::pair<std::uint16_t, const util::Writer*> methods[] = {
      {kLookup, &lookup}, {kZonePublicKey, &zone_key}};
  for (auto [method, w] : methods) {
    Bytes payload = w->buffer();
    payload.pop_back();
    EXPECT_EQ(client.call(rpc::kNamingService, method, payload).code(),
              ErrorCode::kProtocol)
        << method;
  }
}

TEST_F(ResolverFixture, UnknownNameNotFound) {
  SecureResolver resolver(*flow, root_ep, root_key.pub);
  EXPECT_EQ(resolver.resolve("ghost.vu.nl").code(), ErrorCode::kNotFound);
  EXPECT_EQ(resolver.resolve("unknown.org").code(), ErrorCode::kNotFound);
}

TEST_F(ResolverFixture, WrongTrustAnchorRejectsEverything) {
  SecureResolver resolver(*flow, root_ep, make_key(999).pub);
  EXPECT_EQ(resolver.resolve("doc.vu.nl").code(), ErrorCode::kBadSignature);
}

TEST_F(ResolverFixture, ExpiredRecordRejected) {
  vu->add_oid("stale.vu.nl", fake_oid(0x22), util::millis(1));
  flow->advance(util::seconds(10));  // well past the record's expiry
  SecureResolver resolver(*flow, root_ep, root_key.pub);
  EXPECT_EQ(resolver.resolve("stale.vu.nl").code(), ErrorCode::kExpired);
}

TEST_F(ResolverFixture, TamperedRecordDetected) {
  // A man in the middle who flips one bit of the (signed) answer.
  net::Endpoint evil_ep{ns_host, 66};
  auto inner = root_dispatcher.handler();
  net.bind(evil_ep, [inner](net::ServerContext& ctx,
                            util::BytesView req) -> util::Result<Bytes> {
    auto reply = inner(ctx, req);
    if (!reply.is_ok()) return reply.status();
    Bytes resp = std::move(*reply).flatten();
    if (!resp.empty()) resp[resp.size() / 2] ^= 0x01;
    return resp;
  });
  SecureResolver resolver(*flow, evil_ep, root_key.pub);
  auto r = resolver.resolve("doc.vu.nl");
  EXPECT_FALSE(r.is_ok());
  // Depending on which byte flips, parsing or verification fails; either
  // way it must not produce a wrong OID silently.
}

TEST_F(ResolverFixture, SubstitutedAnswerDetectedAsWrongName) {
  // A malicious server replays a *correctly signed* record for a different
  // name (consistency attack).
  vu->add_oid("other.vu.nl", fake_oid(0xCC), util::seconds(1000));
  net::Endpoint evil_ep{ns_host, 67};
  auto& vu_zone = *vu;
  net.bind(evil_ep, [&vu_zone](net::ServerContext&,
                               util::BytesView) -> util::Result<Bytes> {
    auto reply = vu_zone.lookup("other.vu.nl");
    return reply->serialize();
  });

  SecureResolver resolver(*flow, evil_ep, vu_key.pub);
  EXPECT_EQ(resolver.resolve("doc.vu.nl").code(), ErrorCode::kWrongElement);
}

TEST_F(ResolverFixture, CachingSkipsNetworkUntilExpiry) {
  obs::MetricsRegistry registry;
  SecureResolver resolver(*flow, root_ep, root_key.pub, &registry);
  resolver.set_cache_enabled(true);
  ASSERT_TRUE(resolver.resolve("doc.vu.nl").is_ok());
  EXPECT_EQ(resolver.cache_size(), 1u);
  util::SimTime t1 = flow->now();
  ASSERT_TRUE(resolver.resolve("doc.vu.nl").is_ok());
  EXPECT_EQ(flow->now(), t1);  // served from cache, zero time
  EXPECT_EQ(signatures_verified(registry), 3u);

  // After expiry the resolver must go back to the network.
  flow->advance(util::seconds(2000));
  EXPECT_EQ(resolver.resolve("doc.vu.nl").code(), ErrorCode::kExpired);
}

TEST_F(ResolverFixture, CacheStaysAtItsBoundUnderADistinctNameCrawl) {
  constexpr int kNames = SecureResolver::kCacheEntries + 64;
  for (int i = 0; i < kNames; ++i) {
    vu->add_oid("page" + std::to_string(i) + ".vu.nl",
                fake_oid(static_cast<std::uint8_t>(i % 256)), util::seconds(1000));
  }
  SecureResolver resolver(*flow, root_ep, root_key.pub);
  resolver.set_cache_enabled(true);
  for (int i = 0; i < kNames; ++i) {
    ASSERT_TRUE(resolver.resolve("page" + std::to_string(i) + ".vu.nl").is_ok());
    ASSERT_LE(resolver.cache_size(), SecureResolver::kCacheEntries);
  }
  // The latest answer is cached (zero time); the first was evicted.
  util::SimTime t = flow->now();
  auto last = resolver.resolve("page" + std::to_string(kNames - 1) + ".vu.nl");
  ASSERT_TRUE(last.is_ok());
  EXPECT_EQ(flow->now(), t);
  ASSERT_TRUE(resolver.resolve("page0.vu.nl").is_ok());
  EXPECT_GT(flow->now(), t);
}

}  // namespace
}  // namespace globe::naming
