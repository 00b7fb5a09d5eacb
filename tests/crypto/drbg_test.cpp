#include "crypto/drbg.hpp"

#include <gtest/gtest.h>

#include <map>

namespace globe::crypto {
namespace {

using util::Bytes;

TEST(HmacDrbgTest, DeterministicForSeed) {
  auto a = HmacDrbg::from_seed(42);
  auto b = HmacDrbg::from_seed(42);
  EXPECT_EQ(a.bytes(64), b.bytes(64));
}

TEST(HmacDrbgTest, DifferentSeedsDiffer) {
  auto a = HmacDrbg::from_seed(1);
  auto b = HmacDrbg::from_seed(2);
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(HmacDrbgTest, SuccessiveDrawsDiffer) {
  auto d = HmacDrbg::from_seed(7);
  EXPECT_NE(d.bytes(32), d.bytes(32));
}

TEST(HmacDrbgTest, ArbitraryLengths) {
  auto d = HmacDrbg::from_seed(9);
  for (std::size_t n : {0u, 1u, 31u, 32u, 33u, 100u}) {
    EXPECT_EQ(d.bytes(n).size(), n);
  }
}

TEST(HmacDrbgTest, ReseedChangesStream) {
  auto a = HmacDrbg::from_seed(5);
  auto b = HmacDrbg::from_seed(5);
  b.reseed(util::to_bytes("extra entropy"));
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

// Seeded keys, and so the OIDs derived from them, rest on this stream: any
// change to the DRBG's arithmetic must leave it byte for byte as it is.
TEST(HmacDrbgTest, SeededStreamIsByteStable) {
  auto d = HmacDrbg::from_seed(1);
  EXPECT_EQ(util::hex_encode(d.bytes(96)),
            "63874537429702556009a5cb14f3154321aa42bea097d0264651c83f3d3f5323"
            "4fa54bf4f1508acf4bb840709b96c97619108b305d21deae04127f1d3a47dc4b"
            "ff75ffecc1a07fe835b98cd566d48c41be70ae5e9d1811b1596177dafbd256ed");
  d.reseed(util::to_bytes("reseed"));
  EXPECT_EQ(util::hex_encode(d.bytes(40)),
            "207e313fd909edf90ae51af76fa35cb94dc6021082705df302cf9db8c23cf7e1"
            "feac10eb234a80e5");
}

TEST(HmacDrbgTest, OutputLooksUniform) {
  auto d = HmacDrbg::from_seed(1234);
  Bytes sample = d.bytes(4096);
  std::map<int, int> nibbles;
  for (std::uint8_t b : sample) {
    ++nibbles[b >> 4];
    ++nibbles[b & 0xf];
  }
  // 8192 nibbles over 16 bins: expect ~512 each; allow wide tolerance.
  for (int v = 0; v < 16; ++v) {
    EXPECT_GT(nibbles[v], 350) << "nibble " << v;
    EXPECT_LT(nibbles[v], 700) << "nibble " << v;
  }
}

TEST(HmacDrbgTest, U64HelperCoversRange) {
  auto d = HmacDrbg::from_seed(77);
  bool high_bit_seen = false;
  for (int i = 0; i < 64 && !high_bit_seen; ++i) {
    if (d.u64() >> 63) high_bit_seen = true;
  }
  EXPECT_TRUE(high_bit_seen);
}

TEST(SystemRandomTest, ProducesRequestedLength) {
  SystemRandom sr;
  EXPECT_EQ(sr.bytes(16).size(), 16u);
  EXPECT_NE(sr.bytes(16), sr.bytes(16));
}

}  // namespace
}  // namespace globe::crypto
