#include "crypto/rsa.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/mod_pow_lanes.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/serial.hpp"

namespace globe::crypto {
namespace {

using util::Bytes;
using util::to_bytes;

// Key generation dominates test time; share one deterministic key.
const RsaKeyPair& test_key() {
  static const RsaKeyPair kp = [] {
    auto rng = HmacDrbg::from_seed(4242);
    return rsa_generate(1024, rng);
  }();
  return kp;
}

TEST(RsaTest, KeyInternalConsistency) {
  const auto& kp = test_key();
  EXPECT_EQ(kp.priv.p * kp.priv.q, kp.priv.n);
  EXPECT_EQ(kp.priv.n.bit_length(), 1024u);
  BigInt phi = (kp.priv.p - BigInt(1)) * (kp.priv.q - BigInt(1));
  EXPECT_EQ((kp.priv.d * kp.priv.e) % phi, BigInt(1));
  EXPECT_EQ((kp.priv.qinv * kp.priv.q) % kp.priv.p, BigInt(1));
  EXPECT_EQ(kp.pub.n, kp.priv.n);
}

TEST(RsaTest, SignVerifySha1RoundTrip) {
  const auto& kp = test_key();
  Bytes msg = to_bytes("GlobeDoc integrity certificate body");
  Bytes sig = rsa_sign_sha1(kp.priv, msg);
  EXPECT_EQ(sig.size(), kp.pub.modulus_bytes());
  EXPECT_TRUE(rsa_verify_sha1(kp.pub, msg, sig));
}

TEST(RsaTest, SignVerifySha256RoundTrip) {
  const auto& kp = test_key();
  Bytes msg = to_bytes("identity certificate body");
  Bytes sig = rsa_sign_sha256(kp.priv, msg);
  EXPECT_TRUE(rsa_verify_sha256(kp.pub, msg, sig));
  // Cross-algorithm confusion must fail.
  EXPECT_FALSE(rsa_verify_sha1(kp.pub, msg, sig));
}

TEST(RsaTest, TamperedMessageRejected) {
  const auto& kp = test_key();
  Bytes msg = to_bytes("original content");
  Bytes sig = rsa_sign_sha1(kp.priv, msg);
  Bytes tampered = to_bytes("original Content");
  EXPECT_FALSE(rsa_verify_sha1(kp.pub, tampered, sig));
}

TEST(RsaTest, TamperedSignatureRejected) {
  const auto& kp = test_key();
  Bytes msg = to_bytes("some message");
  Bytes sig = rsa_sign_sha1(kp.priv, msg);
  for (std::size_t pos : {std::size_t{0}, sig.size() / 2, sig.size() - 1}) {
    Bytes bad = sig;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(rsa_verify_sha1(kp.pub, msg, bad)) << "pos=" << pos;
  }
}

TEST(RsaTest, WrongKeyRejected) {
  const auto& kp = test_key();
  auto rng = HmacDrbg::from_seed(999);
  RsaKeyPair other = rsa_generate(1024, rng);
  Bytes msg = to_bytes("message");
  Bytes sig = rsa_sign_sha1(kp.priv, msg);
  EXPECT_FALSE(rsa_verify_sha1(other.pub, msg, sig));
}

TEST(RsaTest, WrongSizeSignatureRejected) {
  const auto& kp = test_key();
  Bytes msg = to_bytes("message");
  Bytes sig = rsa_sign_sha1(kp.priv, msg);
  Bytes truncated(sig.begin(), sig.end() - 1);
  EXPECT_FALSE(rsa_verify_sha1(kp.pub, msg, truncated));
  Bytes extended = sig;
  extended.push_back(0);
  EXPECT_FALSE(rsa_verify_sha1(kp.pub, msg, extended));
}

TEST(RsaTest, EncryptDecryptRoundTrip) {
  const auto& kp = test_key();
  auto rng = HmacDrbg::from_seed(7);
  Bytes msg = to_bytes("pre-master secret 0123456789abcdef");
  auto ct = rsa_encrypt(kp.pub, msg, rng);
  ASSERT_TRUE(ct.is_ok());
  EXPECT_EQ(ct->size(), kp.pub.modulus_bytes());
  auto pt = rsa_decrypt(kp.priv, *ct);
  ASSERT_TRUE(pt.is_ok());
  EXPECT_EQ(*pt, msg);
}

TEST(RsaTest, EncryptionIsRandomized) {
  const auto& kp = test_key();
  auto rng = HmacDrbg::from_seed(8);
  Bytes msg = to_bytes("same message");
  auto a = rsa_encrypt(kp.pub, msg, rng);
  auto b = rsa_encrypt(kp.pub, msg, rng);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_NE(*a, *b);
}

TEST(RsaTest, OversizedPlaintextRejected) {
  const auto& kp = test_key();
  auto rng = HmacDrbg::from_seed(9);
  Bytes too_big(kp.pub.modulus_bytes() - 10, 0x41);
  auto r = rsa_encrypt(kp.pub, too_big, rng);
  EXPECT_EQ(r.code(), util::ErrorCode::kInvalidArgument);
}

TEST(RsaTest, CorruptCiphertextRejectedGracefully) {
  const auto& kp = test_key();
  auto rng = HmacDrbg::from_seed(10);
  auto ct = rsa_encrypt(kp.pub, to_bytes("secret"), rng);
  ASSERT_TRUE(ct.is_ok());
  Bytes bad = *ct;
  bad[5] ^= 0xff;
  auto pt = rsa_decrypt(kp.priv, bad);
  if (pt.is_ok()) {
    // Padding survived by chance (possible but wildly unlikely); payload
    // must still differ.
    EXPECT_NE(*pt, to_bytes("secret"));
  } else {
    EXPECT_EQ(pt.code(), util::ErrorCode::kProtocol);
  }
}

TEST(RsaTest, DecryptRejectsWrongLength) {
  const auto& kp = test_key();
  Bytes short_ct(kp.pub.modulus_bytes() - 1, 1);
  EXPECT_EQ(rsa_decrypt(kp.priv, short_ct).code(), util::ErrorCode::kInvalidArgument);
}

TEST(RsaTest, PublicKeySerializationRoundTrip) {
  const auto& kp = test_key();
  Bytes wire = kp.pub.serialize();
  auto parsed = RsaPublicKey::parse(wire);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(*parsed, kp.pub);
}

TEST(RsaTest, PublicKeyParseRejectsGarbage) {
  EXPECT_FALSE(RsaPublicKey::parse(to_bytes("not a key")).is_ok());
  EXPECT_FALSE(RsaPublicKey::parse(Bytes{}).is_ok());
  // Trailing garbage after a valid key.
  Bytes wire = test_key().pub.serialize();
  wire.push_back(0);
  EXPECT_FALSE(RsaPublicKey::parse(wire).is_ok());
}

TEST(RsaTest, PrivateKeySerializationRoundTrip) {
  // The encoding the keygen pin hashes: the eight components in order, each
  // a length-prefixed big-endian integer that reads back to the component.
  const auto& kp = test_key();
  const Bytes wire = kp.priv.serialize();
  util::Reader r(wire);
  for (const BigInt* v : {&kp.priv.n, &kp.priv.e, &kp.priv.d, &kp.priv.p,
                          &kp.priv.q, &kp.priv.dp, &kp.priv.dq, &kp.priv.qinv}) {
    EXPECT_EQ(BigInt::from_bytes(r.bytes()), *v);
  }
  r.expect_end();
}

TEST(RsaTest, DeterministicKeygenFromSeed) {
  auto r1 = HmacDrbg::from_seed(31337);
  auto r2 = HmacDrbg::from_seed(31337);
  RsaKeyPair a = rsa_generate(512, r1);
  RsaKeyPair b = rsa_generate(512, r2);
  EXPECT_EQ(a.pub, b.pub);
}

// Seeded keys are pinned byte for byte: a document's OID is the hash of
// its public key, so arithmetic changes below rsa_generate must not move
// any key.  The last seed is the one bench_live derives its fleet from.
// The digests are those of the sieved search for top-two-bit primes
// (prime.hpp); a change to how candidates are drawn or ordered moves them.
TEST(RsaTest, SeededKeygenIsByteStable) {
  struct Golden {
    std::uint64_t seed;
    std::size_t bits;
    const char* priv_sha256;
  };
  const Golden kGolden[] = {
      {4242, 1024,
       "5e6aff00a19e0190b241e6fcae96af1dbd0a4c7bebe388f261bf784a07af824c"},
      {31337, 512,
       "bc738d2250fea1a6e337c31a3d651a0bef939f402acb55a0840e9670c641c2d0"},
      {0x6c697665'6b657973ull, 1024,
       "905cf7b9728e8c3cacc0bd6d57eb2ed15417aa633c15cf4dd18bdb1690d11c9a"},
  };
  for (const Golden& g : kGolden) {
    auto rng = HmacDrbg::from_seed(g.seed);
    Bytes priv = rsa_generate(g.bits, rng).priv.serialize();
    EXPECT_EQ(util::hex_encode(Sha256::digest_bytes(priv)), g.priv_sha256)
        << "seed=" << g.seed << " bits=" << g.bits;
  }
}

// qinv is the inverse of q mod p that CRT recombination needs, reduced
// below p, on the golden seeds above.
TEST(RsaTest, QinvInvertsQModPOnGoldenSeeds) {
  const std::pair<std::uint64_t, std::size_t> kSeeds[] = {
      {4242, 1024}, {31337, 512}, {0x6c697665'6b657973ull, 1024}};
  for (auto [seed, bits] : kSeeds) {
    auto rng = HmacDrbg::from_seed(seed);
    RsaPrivateKey priv = rsa_generate(bits, rng).priv;
    EXPECT_EQ((priv.qinv * priv.q) % priv.p, BigInt(1)) << "seed=" << seed;
    EXPECT_LT(priv.qinv, priv.p) << "seed=" << seed;
  }
}

// d is the inverse of e mod φ = (p − 1)(q − 1), reduced below φ, and dp and
// dq its CRT exponents, on the golden seeds above.
TEST(RsaTest, PrivateExponentInvertsEModPhiOnGoldenSeeds) {
  const std::pair<std::uint64_t, std::size_t> kSeeds[] = {
      {4242, 1024}, {31337, 512}, {0x6c697665'6b657973ull, 1024}};
  for (auto [seed, bits] : kSeeds) {
    auto rng = HmacDrbg::from_seed(seed);
    const RsaPrivateKey priv = rsa_generate(bits, rng).priv;
    const BigInt p1 = priv.p - BigInt(1), q1 = priv.q - BigInt(1), phi = p1 * q1;
    EXPECT_EQ((priv.d * priv.e) % phi, BigInt(1)) << "seed=" << seed;
    EXPECT_LT(priv.d, phi) << "seed=" << seed;
    EXPECT_EQ(priv.dp, priv.d % p1) << "seed=" << seed;
    EXPECT_EQ(priv.dq, priv.d % q1) << "seed=" << seed;
  }
}

// The textbook key p = 61, q = 53, e = 17, checked by hand: φ = 3120 and
// 17 · 2753 = 15 · 3120 + 1, 53 · 38 = 33 · 61 + 1.  With p = 103, e divides
// φ = 102 · 52, and there is no key.
TEST(RsaTest, PrivateKeyOfSmallPrimesMatchesHandComputedValues) {
  const std::optional<RsaPrivateKey> priv =
      detail::rsa_private_key(BigInt(61), BigInt(53), BigInt(17));
  ASSERT_TRUE(priv.has_value());
  EXPECT_EQ(priv->n, BigInt(3233));
  EXPECT_EQ(priv->d, BigInt(2753));
  EXPECT_EQ(priv->dp, BigInt(53));
  EXPECT_EQ(priv->dq, BigInt(49));
  EXPECT_EQ(priv->qinv, BigInt(38));
  EXPECT_FALSE(detail::rsa_private_key(BigInt(103), BigInt(53), BigInt(17)).has_value());
  // The exponent every generated key uses: 65537 = 21 · 3120 + 17, so d is
  // the same.
  const std::optional<RsaPrivateKey> key_e =
      detail::rsa_private_key(BigInt(61), BigInt(53), BigInt(65537));
  ASSERT_TRUE(key_e.has_value());
  EXPECT_EQ(key_e->d, BigInt(2753));
}

// PKCS#1 v1.5 signatures are deterministic, so every lane kernel gives the
// same bytes: the portable one (two BigInt::mod_pow calls), the IFMA one
// where the CPU has it (one two-lane pass) and the kernel rsa_sign_sha256
// picks, on the golden seeds above.  The digest of them all is the scalar
// CRT path's.
TEST(RsaTest, GoldenKeySignaturesAreByteEqualUnderEveryKernel) {
  std::vector<const LaneKernel*> kernels = {&detail::kPortableLanes};
#if defined(__x86_64__)
  if (detail::cpu_has_ifma()) kernels.push_back(&detail::kIfmaLanes);
#endif
  const std::pair<std::uint64_t, std::size_t> kSeeds[] = {
      {4242, 1024}, {31337, 512}, {0x6c697665'6b657973ull, 1024}};
  Bytes all;
  for (auto [seed, bits] : kSeeds) {
    auto rng = HmacDrbg::from_seed(seed);
    const RsaPrivateKey key = rsa_generate(bits, rng).priv;
    for (int i = 0; i < 8; ++i) {
      const Bytes msg = to_bytes("golden message " + std::to_string(i));
      const Bytes sig = rsa_sign_sha256(key, msg);
      for (const LaneKernel* kernel : kernels) {
        EXPECT_EQ(detail::rsa_sign_sha256(key, msg, *kernel), sig)
            << "seed=" << seed << " message " << i << " on " << kernel->name;
      }
      util::append(all, sig);
    }
  }
  EXPECT_EQ(util::hex_encode(Sha256::digest_bytes(all)),
            "ce8bf2d39106fff84ec86b2b82b4ce0270a47cbd51fac911b0a0bf5c9ebe704a");
}

// A kernel that runs every lane and then corrupts one lane's result, as a
// fault in one CRT half would.
template <std::size_t kLane>
void corrupt_lane_pass(const PowLane* lanes, std::size_t count, BigInt* out) {
  mod_pow_lanes(512).pass(lanes, count, out);
  BigInt& x = out[kLane];
  x = x.is_odd() ? x - BigInt(1) : x + BigInt(1);
}

// Such a signature would give away a factor of n, gcd(s^e - m, n), so
// signing checks s^e = m (mod n) and throws before any bytes leave.
TEST(RsaTest, AFaultInEitherCrtHalfIsCaughtBeforeRelease) {
  const Bytes msg = to_bytes("faulted signature");
  const LaneKernel faulty[] = {{"lane 0 (mod p) corrupted", kMaxLanes, 512, corrupt_lane_pass<0>},
                               {"lane 1 (mod q) corrupted", kMaxLanes, 512, corrupt_lane_pass<1>}};
  for (const LaneKernel& kernel : faulty) {
    Bytes sig;
    EXPECT_THROW(sig = detail::rsa_sign_sha256(test_key().priv, msg, kernel), std::runtime_error)
        << kernel.name;
    EXPECT_TRUE(sig.empty()) << kernel.name;
  }
}

// Both primes have their top two bits set, so every pair gives a modulus of
// exactly `bits` bits.
TEST(RsaTest, EveryKeyHasExactBitsAndSigns) {
  const Bytes msg = to_bytes("exact modulus");
  for (auto [bits, seeds] : {std::pair<std::size_t, std::uint64_t>{512, 32}, {1024, 16}}) {
    const BigInt floor = BigInt(3) << (bits / 2 - 2);  // 1.5 * 2^(bits/2 - 1)
    for (std::uint64_t seed = 0; seed < seeds; ++seed) {
      auto rng = HmacDrbg::from_seed(seed);
      RsaKeyPair kp = rsa_generate(bits, rng);
      EXPECT_EQ(kp.pub.n.bit_length(), bits) << "seed=" << seed;
      EXPECT_GT(kp.priv.p, kp.priv.q) << "seed=" << seed;
      EXPECT_GE(kp.priv.q, floor) << "seed=" << seed;
      EXPECT_TRUE(rsa_verify_sha256(kp.pub, msg, rsa_sign_sha256(kp.priv, msg)))
          << "seed=" << seed;
      auto parsed = RsaPublicKey::parse(kp.pub.serialize());
      EXPECT_TRUE(parsed.is_ok() && *parsed == kp.pub) << "seed=" << seed;
    }
  }
}

TEST(RsaTest, SmallKeySignVerify) {
  auto rng = HmacDrbg::from_seed(606);
  RsaKeyPair kp = rsa_generate(512, rng);
  Bytes msg = to_bytes("small key message");
  EXPECT_TRUE(rsa_verify_sha1(kp.pub, msg, rsa_sign_sha1(kp.priv, msg)));
  EXPECT_TRUE(rsa_verify_sha256(kp.pub, msg, rsa_sign_sha256(kp.priv, msg)));
}

TEST(RsaTest, RejectsTooSmallModulusRequest) {
  auto rng = HmacDrbg::from_seed(1);
  EXPECT_THROW(rsa_generate(128, rng), std::invalid_argument);
}


TEST(RsaParseTest, RejectsOversizedModulus) {
  // A wire key claiming a modulus beyond kMaxRsaModulusBytes (8192 bits)
  // is a protocol error before BigInt::from_bytes materializes it; every
  // downstream modulus_bytes()-sized buffer stays capped by construction.
  // So is a key no verifier should exponentiate with: an even modulus, or
  // an exponent that is even, 1, or wider than kMaxRsaExponentBits, whose
  // width a peer would otherwise choose as the verifier's cost.
  auto wire = [](const Bytes& n, const Bytes& e) {
    util::Writer w;
    w.bytes(n);
    w.bytes(e);
    return w.take();
  };
  const Bytes n = test_key().pub.n.to_bytes();
  const Bytes even_n = (test_key().pub.n - BigInt(1)).to_bytes();
  const Bytes e_max = ((BigInt(1) << kMaxRsaExponentBits) - BigInt(1)).to_bytes();
  const Bytes rejected[] = {
      wire(Bytes(kMaxRsaModulusBytes + 1, 0xFF), {0x01, 0x00, 0x01}),
      wire(even_n, {0x01, 0x00, 0x01}),
      wire(Bytes{}, {0x01, 0x00, 0x01}),
      wire(n, {0x01, 0x00, 0x00}),
      wire(n, {0x01}),
      wire(n, Bytes{}),
      wire(n, ((BigInt(1) << kMaxRsaExponentBits) + BigInt(1)).to_bytes()),
      wire(n, Bytes(kMaxRsaModulusBytes, 0xFF)),
  };
  for (std::size_t i = 0; i < std::size(rejected); ++i) {
    auto key = RsaPublicKey::parse(rejected[i]);
    EXPECT_FALSE(key.is_ok()) << "input " << i;
    EXPECT_EQ(key.code(), util::ErrorCode::kProtocol) << "input " << i;
  }
  // The bounds themselves parse: e = 3 and a full 33-bit exponent.
  EXPECT_TRUE(RsaPublicKey::parse(wire(n, {0x03})).is_ok());
  EXPECT_TRUE(RsaPublicKey::parse(wire(n, e_max)).is_ok());
}
}  // namespace
}  // namespace globe::crypto
