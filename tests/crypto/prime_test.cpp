#include "crypto/prime.hpp"

#include <gtest/gtest.h>

#include <set>

#include "crypto/drbg.hpp"

namespace globe::crypto {
namespace {

bool is_prime_by_trial_division(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t d = 2; d * d <= n; ++d) {
    if (n % d == 0) return false;
  }
  return true;
}

TEST(PrimeTest, SmallPrimesRecognized) {
  auto rng = HmacDrbg::from_seed(1);
  for (std::uint64_t p : {2u, 3u, 5u, 7u, 11u, 13u, 251u, 257u, 65537u}) {
    EXPECT_TRUE(is_probable_prime(BigInt(p), rng)) << p;
  }
}

TEST(PrimeTest, SmallCompositesRejected) {
  auto rng = HmacDrbg::from_seed(2);
  for (std::uint64_t c : {0u, 1u, 4u, 6u, 9u, 15u, 255u, 256u, 1001u}) {
    EXPECT_FALSE(is_probable_prime(BigInt(c), rng)) << c;
  }
}

TEST(PrimeTest, CarmichaelNumbersRejected) {
  // Fermat pseudoprimes that fool a^(n-1) tests; Miller-Rabin must reject.
  auto rng = HmacDrbg::from_seed(3);
  for (std::uint64_t c : {561u, 1105u, 1729u, 2465u, 2821u, 41041u, 825265u}) {
    EXPECT_FALSE(is_probable_prime(BigInt(c), rng)) << c;
  }
}

TEST(PrimeTest, LargeKnownPrimeAccepted) {
  auto rng = HmacDrbg::from_seed(4);
  // 2^127 - 1 (Mersenne prime).
  BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  EXPECT_TRUE(is_probable_prime(m127, rng));
  // 2^128 - 1 is composite.
  BigInt m128 = (BigInt(1) << 128) - BigInt(1);
  EXPECT_FALSE(is_probable_prime(m128, rng));
}

TEST(PrimeTest, GeneratedPrimeHasExactBits) {
  auto rng = HmacDrbg::from_seed(5);
  for (std::size_t bits : {16u, 64u, 128u}) {
    BigInt p = generate_prime(bits, rng);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(p.is_odd());
    EXPECT_TRUE(is_probable_prime(p, rng));
  }
}

// Below 2^20 every output is checked exhaustively.  Widths up to 16 bits
// draw candidates from among the sieving primes themselves.
TEST(PrimeTest, SmallWidthsGiveTopTwoBitPrimes) {
  for (std::size_t bits = 8; bits <= 20; ++bits) {
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
      auto rng = HmacDrbg::from_seed(1000 * bits + seed);
      std::uint64_t p = generate_prime(bits, rng).low_u64();
      EXPECT_TRUE(is_prime_by_trial_division(p)) << p;
      EXPECT_EQ(p & 1, 1u) << p;
      EXPECT_EQ(p >> (bits - 2), 3u) << "bits=" << bits << " p=" << p;
    }
  }
}

// Every 8-bit prime with its top two bits set is a sieving prime; the sieve
// strikes its multiples but not the prime, so each one is still returned.
TEST(PrimeTest, SievingPrimesRemainReachable) {
  std::set<std::uint64_t> all;
  for (std::uint64_t n = 192; n < 256; ++n) {
    if (is_prime_by_trial_division(n)) all.insert(n);
  }
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed = 0; seed < 512 && seen != all; ++seed) {
    auto rng = HmacDrbg::from_seed(seed);
    seen.insert(generate_prime(8, rng).low_u64());
  }
  EXPECT_EQ(seen, all);
}

TEST(PrimeTest, GenerationIsDeterministicPerSeed) {
  auto a = HmacDrbg::from_seed(77);
  auto b = HmacDrbg::from_seed(77);
  EXPECT_EQ(generate_prime(64, a), generate_prime(64, b));
}

TEST(PrimeTest, TinyBitWidthRejected) {
  auto rng = HmacDrbg::from_seed(6);
  EXPECT_THROW(generate_prime(4, rng), std::invalid_argument);
}

}  // namespace
}  // namespace globe::crypto
