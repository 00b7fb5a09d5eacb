// Parser robustness: every wire format that can arrive from an untrusted
// peer is fed (a) pure random bytes and (b) bit-flipped / truncated /
// extended mutations of valid encodings.  Parsers must fail gracefully
// (error Result or documented SerialError) — never crash, never read out
// of bounds (pair with ASAN for the latter).
#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "crypto/merkle.hpp"
#include "crypto/rsa.hpp"
#include "globedoc/identity.hpp"
#include "globedoc/integrity.hpp"
#include "globedoc/object.hpp"
#include "globedoc/server.hpp"
#include "http/parser.hpp"
#include "http/secure_channel.hpp"
#include "location/tree.hpp"
#include "naming/records.hpp"
#include "naming/service.hpp"

namespace globe {
namespace {

using util::Bytes;
using util::BytesView;

/// Invokes every parser on `data`; throws/aborts only on a bug.
void feed_all_parsers(BytesView data) {
  (void)globedoc::PageElement::parse(data);
  (void)globedoc::ReplicaState::parse(data);
  (void)globedoc::IntegrityCertificate::parse(data);
  (void)globedoc::IdentityCertificate::parse(data);
  (void)globedoc::Oid::from_bytes(data);
  (void)naming::OidRecord::parse(data);
  (void)naming::DelegationRecord::parse(data);
  (void)naming::SignedBlob::parse(data);
  (void)naming::NamingReply::parse(data);
  (void)location::LookupReply::parse(data);
  (void)crypto::RsaPublicKey::parse(data);
  (void)http::parse_request(data);
  (void)http::parse_response(data);
  (void)http::verify_certificate(data, "any.name");
  try {
    (void)crypto::MerkleProof::parse(data);  // documented: throws SerialError
  } catch (const util::SerialError&) {
  }
  http::MessageFramer framer;
  framer.set_max_message(1 << 20);
  if (framer.feed(data).is_ok() && framer.has_message()) {
    (void)framer.take_message();
  }
}

class RandomBytesFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RandomBytesFuzz, ParsersSurviveRandomInput) {
  auto rng = crypto::HmacDrbg::from_seed(static_cast<std::uint64_t>(GetParam()));
  for (std::size_t len : {0u, 1u, 2u, 3u, 4u, 7u, 8u, 16u, 20u, 64u, 257u, 4096u}) {
    Bytes data = rng.bytes(len);
    feed_all_parsers(data);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBytesFuzz, ::testing::Range(0, 16));

/// Collects one valid encoding of every wire format.
std::vector<Bytes> valid_encodings() {
  auto rng = crypto::HmacDrbg::from_seed(4040);
  auto keys = crypto::rsa_generate(512, rng);
  auto oid = globedoc::Oid::from_public_key(keys.pub);

  std::vector<Bytes> out;

  globedoc::PageElement element{"index.html", "text/html",
                                util::to_bytes("<html>content</html>")};
  out.push_back(element.serialize());

  globedoc::GlobeDocObject object(keys);
  object.put_element(element);
  object.sign_state(0, util::seconds(60));
  out.push_back(object.snapshot().serialize());
  out.push_back(object.snapshot().certificate.serialize());

  globedoc::CertificateAuthority ca("CA", keys);
  out.push_back(ca.issue("Subject Org", oid, util::seconds(99)).serialize());

  naming::OidRecord oid_record;
  oid_record.name = "doc.vu.nl";
  oid_record.oid = oid.to_bytes();
  oid_record.expires = 777;
  out.push_back(oid_record.serialize());

  naming::DelegationRecord delegation;
  delegation.zone = "vu.nl";
  delegation.child_public_key = keys.pub.serialize();
  delegation.name_server = net::Endpoint{net::HostId{1}, 53};
  out.push_back(delegation.serialize());

  naming::NamingReply reply;
  reply.kind = naming::NamingReply::Kind::kAnswer;
  reply.blob.record = oid_record.serialize();
  reply.blob.signature = crypto::rsa_sign_sha256(keys.priv, reply.blob.record);
  out.push_back(reply.serialize());

  location::LookupReply lookup;
  lookup.found = true;
  lookup.addresses = {net::Endpoint{net::HostId{2}, 8000}};
  lookup.has_parent = true;
  lookup.parent = net::Endpoint{net::HostId{0}, 100};
  out.push_back(lookup.serialize());

  out.push_back(keys.pub.serialize());
  out.push_back(keys.priv.serialize());

  http::HttpRequest request;
  request.method = "GET";
  request.target = "/a/b.html";
  request.headers.set("Host", "example.org");
  request.body = util::to_bytes("body");
  out.push_back(request.serialize());

  out.push_back(http::make_certificate("host.name", keys));

  crypto::MerkleTree tree({util::to_bytes("a"), util::to_bytes("b"),
                           util::to_bytes("c")});
  out.push_back(tree.prove(1).serialize());

  return out;
}

class MutationFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MutationFuzz, ParsersSurviveMutatedValidInput) {
  static const std::vector<Bytes> kValid = valid_encodings();
  util::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);

  for (const Bytes& original : kValid) {
    // Bit flips at random positions.
    for (int flip = 0; flip < 16; ++flip) {
      Bytes mutated = original;
      if (mutated.empty()) continue;
      std::size_t pos = rng.below(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      feed_all_parsers(mutated);
    }
    // Truncations.
    for (int cut = 0; cut < 8; ++cut) {
      if (original.empty()) continue;
      Bytes truncated(original.begin(),
                      original.begin() +
                          static_cast<std::ptrdiff_t>(rng.below(original.size())));
      feed_all_parsers(truncated);
    }
    // Extensions with trailing garbage.
    Bytes extended = original;
    for (int i = 0; i < 9; ++i) extended.push_back(static_cast<std::uint8_t>(rng.next()));
    feed_all_parsers(extended);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzz, ::testing::Range(0, 8));

TEST(FuzzSanity, ValidEncodingsActuallyParse) {
  // Guards the corpus itself: each valid encoding must parse by at least
  // its own parser (otherwise the mutation fuzz would be vacuous).
  auto corpus = valid_encodings();
  EXPECT_GE(corpus.size(), 13u);
  EXPECT_TRUE(globedoc::PageElement::parse(corpus[0]).is_ok());
  EXPECT_TRUE(globedoc::ReplicaState::parse(corpus[1]).is_ok());
  EXPECT_TRUE(globedoc::IntegrityCertificate::parse(corpus[2]).is_ok());
  EXPECT_TRUE(globedoc::IdentityCertificate::parse(corpus[3]).is_ok());
}

}  // namespace
}  // namespace globe
