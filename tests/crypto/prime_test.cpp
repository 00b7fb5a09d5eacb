#include "crypto/prime.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/mod_pow_lanes.hpp"

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
  // From 280601 on, strong pseudoprimes to base 2 with no factor below 252,
  // so trial division passes them and only random bases can reject them
  // (the small ones, 2047 to 8321, all have such a factor);
  // 3825123056546413051 is strong to every prime base up to 23.
  auto rng = HmacDrbg::from_seed(3);
  for (std::uint64_t c : {561ull, 1105ull, 1729ull, 2465ull, 2821ull, 41041ull, 825265ull,
                          280601ull, 390937ull, 458989ull, 514447ull, 580337ull, 741751ull,
                          3825123056546413051ull}) {
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
  // Past the IFMA kernel's 512 bits: the Mersenne prime 2^521 - 1, and its
  // product with 2^127 - 1, which has no factor trial division finds.
  BigInt m521 = (BigInt(1) << 521) - BigInt(1);
  EXPECT_TRUE(is_probable_prime(m521, rng));
  EXPECT_FALSE(is_probable_prime(m521 * m127, rng));
}

TEST(PrimeTest, GeneratedPrimeHasExactBits) {
  auto rng = HmacDrbg::from_seed(5);
  for (std::size_t bits : {16u, 64u, 128u, 768u}) {
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

// The sieve's residues, each found with its prime's Barrett reciprocal, are
// BigInt's remainders for every odd prime below 2^16, on the ends of the
// 512-bit range, on random 512-bit values and on an odd number of limbs.
TEST(PrimeTest, SieveResiduesMatchBigIntRemainders) {
  std::vector<std::uint32_t> primes;
  for (std::uint32_t p = 3; p < (1u << 16); p += 2) {
    if (is_prime_by_trial_division(p)) primes.push_back(p);
  }
  auto rng = HmacDrbg::from_seed(9);
  std::vector<BigInt> values = {BigInt(1) << 511, (BigInt(1) << 512) - BigInt(1),
                                BigInt::random_bits(479, rng)};
  for (int i = 0; i < 4; ++i) values.push_back(BigInt::random_bits(512, rng));
  for (const BigInt& x : values) {
    const std::vector<std::uint16_t> residues = detail::sieve_residues(x);
    ASSERT_EQ(residues.size(), primes.size());
    for (std::size_t i = 0; i < primes.size(); ++i) {
      ASSERT_EQ(residues[i], (x % BigInt(primes[i])).low_u64())
          << "p=" << primes[i] << " x=" << x.to_hex();
    }
  }
}

// The residue pass walks x's 64-bit words once per group of four primes with
// a division step per word: it must hold at every word count, including
// none, and on words of all ones, where each step's top word sits closest
// to the group's divisor.
TEST(PrimeTest, SieveResiduesMatchBigIntRemaindersAtEveryWordCount) {
  std::vector<std::uint32_t> primes;
  for (std::uint32_t p = 3; p < (1u << 16); p += 2) {
    if (is_prime_by_trial_division(p)) primes.push_back(p);
  }
  auto rng = HmacDrbg::from_seed(10);
  std::vector<BigInt> values = {BigInt()};
  for (std::size_t bits : {1u, 31u, 63u, 64u, 65u, 128u, 700u, 1024u}) {
    values.push_back(BigInt::random_bits(bits, rng));
    values.push_back((BigInt(1) << bits) - BigInt(1));
  }
  for (const BigInt& x : values) {
    const std::vector<std::uint16_t> residues = detail::sieve_residues(x);
    ASSERT_EQ(residues.size(), primes.size());
    for (std::size_t i = 0; i < primes.size(); ++i) {
      ASSERT_EQ(residues[i], (x % BigInt(primes[i])).low_u64())
          << "p=" << primes[i] << " x=" << x.to_hex();
    }
  }
}

TEST(PrimeTest, GenerationIsDeterministicPerSeed) {
  auto a = HmacDrbg::from_seed(77);
  auto b = HmacDrbg::from_seed(77);
  EXPECT_EQ(generate_prime(64, a), generate_prime(64, b));
}

// A kernel whose every result is 0, a witness for every candidate, as broken
// arithmetic could make it: the search gives up after 64 starts rather than
// drawing new ones forever.
void zero_pass(const PowLane*, std::size_t count, BigInt* out) {
  for (std::size_t i = 0; i < count; ++i) out[i] = BigInt();
}

TEST(PrimeTest, BrokenArithmeticThrowsAfterTheStartCap) {
  const LaneKernel broken{"broken", kMaxLanes, 512, zero_pass};
  for (std::size_t bits : {8u, 512u}) {
    auto rng = HmacDrbg::from_seed(8);
    EXPECT_THROW(detail::generate_prime(bits, rng, 32, broken), std::runtime_error) << bits;
  }
}

TEST(PrimeTest, TinyBitWidthRejected) {
  auto rng = HmacDrbg::from_seed(6);
  EXPECT_THROW(generate_prime(4, rng), std::invalid_argument);
}

}  // namespace
}  // namespace globe::crypto
