#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "crypto/sha1.hpp"
#include "globedoc/element.hpp"
#include "globedoc/oid.hpp"

namespace globe::globedoc {
namespace {

using util::Bytes;
using util::to_bytes;

const crypto::RsaKeyPair& key_a() {
  static const crypto::RsaKeyPair kp = [] {
    auto rng = crypto::HmacDrbg::from_seed(1);
    return crypto::rsa_generate(512, rng);
  }();
  return kp;
}

const crypto::RsaKeyPair& key_b() {
  static const crypto::RsaKeyPair kp = [] {
    auto rng = crypto::HmacDrbg::from_seed(2);
    return crypto::rsa_generate(512, rng);
  }();
  return kp;
}

TEST(OidTest, DerivationIsSha1OfSerializedKey) {
  Oid oid = Oid::from_public_key(key_a().pub);
  EXPECT_EQ(oid.to_bytes(), crypto::Sha1::digest_bytes(key_a().pub.serialize()));
}

TEST(OidTest, SelfCertifyingCheck) {
  Oid oid = Oid::from_public_key(key_a().pub);
  EXPECT_TRUE(oid.matches_key(key_a().pub));
  EXPECT_FALSE(oid.matches_key(key_b().pub));
}

TEST(OidTest, DistinctKeysDistinctOids) {
  EXPECT_NE(Oid::from_public_key(key_a().pub), Oid::from_public_key(key_b().pub));
}

TEST(OidTest, BytesRoundTrip) {
  Oid oid = Oid::from_public_key(key_a().pub);
  auto back = Oid::from_bytes(oid.to_bytes());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, oid);
}

TEST(OidTest, HexRoundTrip) {
  Oid oid = Oid::from_public_key(key_a().pub);
  EXPECT_EQ(oid.to_hex().size(), 40u);
  auto back = Oid::from_hex(oid.to_hex());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, oid);
}

TEST(OidTest, WrongSizeRejected) {
  EXPECT_FALSE(Oid::from_bytes(Bytes(19, 0)).is_ok());
  EXPECT_FALSE(Oid::from_bytes(Bytes(21, 0)).is_ok());
  EXPECT_FALSE(Oid::from_hex("abcd").is_ok());
  EXPECT_FALSE(Oid::from_hex("zz").is_ok());
}

TEST(OidTest, DefaultIsZero) {
  Oid oid;
  EXPECT_EQ(oid.to_hex(), std::string(40, '0'));
}

TEST(ElementTest, SerializeParseRoundTrip) {
  PageElement el{"img/logo.gif", "image/gif", Bytes{1, 2, 3, 4}};
  auto parsed = PageElement::parse(el.serialize());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(*parsed, el);
}

TEST(ElementTest, EmptyNameRejectedOnParse) {
  PageElement el{"", "text/plain", Bytes{}};
  EXPECT_FALSE(PageElement::parse(el.serialize()).is_ok());
}

TEST(ElementTest, GarbageRejected) {
  EXPECT_FALSE(PageElement::parse(to_bytes("garbage")).is_ok());
}

TEST(ElementTest, DigestCoversNameTypeAndContent) {
  PageElement base{"a.html", "text/html", to_bytes("body")};
  PageElement renamed{"b.html", "text/html", to_bytes("body")};
  PageElement retyped{"a.html", "text/plain", to_bytes("body")};
  PageElement edited{"a.html", "text/html", to_bytes("Body")};
  EXPECT_NE(base.digest(), renamed.digest());
  EXPECT_NE(base.digest(), retyped.digest());
  EXPECT_NE(base.digest(), edited.digest());
  PageElement copy{"a.html", "text/html", to_bytes("body")};
  EXPECT_EQ(base.digest(), copy.digest());
}

// digest() hashes the fields where they lie; the certificates it feeds pin
// the digest of the serialized element, so the two must agree at any size.
TEST(ElementTest, DigestIsSha1OfSerializedElement) {
  auto rng = crypto::HmacDrbg::from_seed(17);
  const PageElement elements[] = {
      {"", "", {}},
      {"x", "", {0x42}},
      {"big.bin", "application/octet-stream", rng.bytes(256 * 1024 + 17)}};
  for (const PageElement& el : elements) {
    EXPECT_EQ(el.digest(), crypto::Sha1::digest_bytes(el.serialize()))
        << "content bytes=" << el.content.size();
  }
}

}  // namespace
}  // namespace globe::globedoc
