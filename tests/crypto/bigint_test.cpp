#include "crypto/bigint.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/prime.hpp"
#include "util/bytes.hpp"

namespace globe::crypto {
namespace {

using util::Bytes;

TEST(BigIntTest, ZeroProperties) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_TRUE(z.is_even());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_EQ(z.to_dec(), "0");
  EXPECT_TRUE(z.to_bytes().empty());
}

TEST(BigIntTest, U64Construction) {
  BigInt v(0x0123456789abcdefULL);
  EXPECT_EQ(v.low_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(v.bit_length(), 57u);
  EXPECT_EQ(v.to_hex(), "123456789abcdef");
}

TEST(BigIntTest, BytesRoundTrip) {
  Bytes be{0x01, 0x02, 0x03, 0x04, 0x05};
  BigInt v = BigInt::from_bytes(be);
  EXPECT_EQ(v.to_bytes(), be);
  EXPECT_EQ(v.low_u64(), 0x0102030405ULL);
}

TEST(BigIntTest, LeadingZerosIgnoredOnParse) {
  Bytes with_zeros{0x00, 0x00, 0xff, 0x01};
  BigInt v = BigInt::from_bytes(with_zeros);
  EXPECT_EQ(v.to_bytes(), (Bytes{0xff, 0x01}));
}

TEST(BigIntTest, PaddedToBytes) {
  BigInt v(0xabcd);
  EXPECT_EQ(v.to_bytes(4), (Bytes{0x00, 0x00, 0xab, 0xcd}));
  EXPECT_THROW(v.to_bytes(1), std::invalid_argument);
  EXPECT_EQ(BigInt().to_bytes(2), (Bytes{0x00, 0x00}));
}

TEST(BigIntTest, HexRoundTrip) {
  BigInt v = BigInt::from_hex("deadbeefcafebabe1234567890");
  EXPECT_EQ(v.to_hex(), "deadbeefcafebabe1234567890");
  EXPECT_EQ(BigInt::from_hex("0"), BigInt(0));
  EXPECT_EQ(BigInt::from_hex("f"), BigInt(15));
}

TEST(BigIntTest, DecRoundTrip) {
  BigInt v = BigInt::from_dec("123456789012345678901234567890");
  EXPECT_EQ(v.to_dec(), "123456789012345678901234567890");
  EXPECT_THROW(BigInt::from_dec("12a"), std::invalid_argument);
}

TEST(BigIntTest, ComparisonOrdering) {
  BigInt a(100), b(200);
  BigInt big = BigInt::from_hex("ffffffffffffffffffffffffffffffff");
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_LE(a, a);
  EXPECT_LT(b, big);
  EXPECT_NE(a, b);
}

TEST(BigIntTest, AdditionCarryPropagation) {
  BigInt max32 = BigInt::from_hex("ffffffff");
  EXPECT_EQ((max32 + BigInt(1)).to_hex(), "100000000");
  BigInt max96 = BigInt::from_hex("ffffffffffffffffffffffff");
  EXPECT_EQ((max96 + BigInt(1)).to_hex(), "1000000000000000000000000");
}

TEST(BigIntTest, SubtractionBorrowPropagation) {
  BigInt v = BigInt(1) << 96;
  EXPECT_EQ((v - BigInt(1)).to_hex(), "ffffffffffffffffffffffff");
  EXPECT_THROW(BigInt(1) - BigInt(2), std::underflow_error);
  EXPECT_EQ((v - v).to_hex(), "0");
}

TEST(BigIntTest, MultiplicationKnownValue) {
  BigInt a = BigInt::from_dec("123456789123456789");
  BigInt b = BigInt::from_dec("987654321987654321");
  EXPECT_EQ((a * b).to_dec(), "121932631356500531347203169112635269");
}

TEST(BigIntTest, MultiplyByZeroAndOne) {
  BigInt a = BigInt::from_hex("deadbeef");
  EXPECT_TRUE((a * BigInt()).is_zero());
  EXPECT_EQ(a * BigInt(1), a);
}

TEST(BigIntTest, ShiftsInverse) {
  BigInt a = BigInt::from_hex("123456789abcdef0123456789");
  for (std::size_t s : {1u, 7u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ((a << s) >> s, a) << "shift=" << s;
  }
  EXPECT_EQ((BigInt(1) << 128).to_hex(), "100000000000000000000000000000000");
  EXPECT_TRUE((a >> 200).is_zero());
}

TEST(BigIntTest, DivisionKnownValues) {
  BigInt a = BigInt::from_dec("1000000000000000000000000000007");
  BigInt b = BigInt::from_dec("1000003");
  BigInt q, r;
  BigInt::divmod(a, b, q, r);
  EXPECT_EQ(q * b + r, a);
  EXPECT_LT(r, b);
  EXPECT_THROW(a / BigInt(), std::domain_error);
  // A quotient digit estimate one too large, so Algorithm D adds the
  // divisor back: about a 2^-63 event on random 64-bit digits.
  BigInt num = BigInt::from_hex("7fffffffffffffff8000000000000000") << 128;
  BigInt den = (BigInt(1) << 191) + BigInt(1);
  BigInt::divmod(num, den, q, r);
  EXPECT_EQ(q * den + r, num);
  EXPECT_LT(r, den);
}

TEST(BigIntTest, DivisionBySingleLimb) {
  BigInt a = BigInt::from_dec("123456789012345678901234567890");
  EXPECT_EQ((a / BigInt(10)).to_dec(), "12345678901234567890123456789");
  EXPECT_EQ((a % BigInt(10)).to_dec(), "0");
  BigInt q, r;
  BigInt::divmod(a, BigInt(7), q, r);
  EXPECT_EQ(q * BigInt(7) + r, a);
  EXPECT_LT(r, BigInt(7));
}

// Property sweep: q*b + r == a and r < b over deterministic random inputs of
// assorted sizes, including the Knuth "add back" stress region.
class BigIntDivisionProperty : public ::testing::TestWithParam<int> {};

TEST_P(BigIntDivisionProperty, QuotientRemainderIdentity) {
  auto rng = HmacDrbg::from_seed(static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 25; ++iter) {
    std::size_t abits = 16 + static_cast<std::size_t>(rng.u64() % 512);
    std::size_t bbits = 8 + static_cast<std::size_t>(rng.u64() % 256);
    BigInt a = BigInt::random_bits(abits, rng);
    BigInt b = BigInt::random_bits(bbits, rng);
    BigInt q, r;
    BigInt::divmod(a, b, q, r);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntDivisionProperty, ::testing::Range(0, 8));

// Property sweep: 64-bit arithmetic matches native __int128 results.
class BigIntNativeCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(BigIntNativeCrossCheck, MatchesNativeArithmetic) {
  auto rng = HmacDrbg::from_seed(1000 + static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 50; ++iter) {
    std::uint64_t x = rng.u64();
    std::uint64_t y = rng.u64();
    BigInt bx(x), by(y);
    unsigned __int128 sum = static_cast<unsigned __int128>(x) + y;
    unsigned __int128 prod = static_cast<unsigned __int128>(x) * y;
    EXPECT_EQ((bx + by).low_u64(), static_cast<std::uint64_t>(sum));
    BigInt p = bx * by;
    EXPECT_EQ(p.low_u64(), static_cast<std::uint64_t>(prod));
    EXPECT_EQ((p >> 64).low_u64(), static_cast<std::uint64_t>(prod >> 64));
    if (y != 0) {
      EXPECT_EQ((bx / by).low_u64(), x / y);
      EXPECT_EQ((bx % by).low_u64(), x % y);
    }
    if (x >= y) {
      EXPECT_EQ((bx - by).low_u64(), x - y);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntNativeCrossCheck, ::testing::Range(0, 8));

TEST(BigIntTest, ModPowKnownValues) {
  // 2^10 mod 1001 = 23
  EXPECT_EQ(BigInt::mod_pow(BigInt(2), BigInt(10), BigInt(1001)).low_u64(), 23u);
  // Fermat: a^(p-1) mod p == 1 for prime p.
  BigInt p = BigInt::from_dec("1000000007");
  EXPECT_EQ(BigInt::mod_pow(BigInt(12345), p - BigInt(1), p), BigInt(1));
  // Exponent zero.
  EXPECT_EQ(BigInt::mod_pow(BigInt(99), BigInt(), BigInt(7)), BigInt(1));
  // Modulus one.
  EXPECT_TRUE(BigInt::mod_pow(BigInt(99), BigInt(3), BigInt(1)).is_zero());
}

TEST(BigIntTest, ModPowRejectsEvenModulus) {
  // Montgomery form needs an odd modulus, as the lane kernel's does; every
  // RSA and prime-search modulus is odd.
  EXPECT_THROW(BigInt::mod_pow(BigInt(2), BigInt(10), BigInt(1000)), std::invalid_argument);
  EXPECT_THROW(BigInt::mod_pow(BigInt(3), BigInt(), BigInt(2)), std::invalid_argument);
  EXPECT_THROW(BigInt::mod_pow(BigInt(3), BigInt(5), BigInt()), std::domain_error);
}

// Naive square-and-multiply with division-based reduction: the reference
// the Montgomery path is checked against.
BigInt naive_mod_pow(const BigInt& base, const BigInt& exp, const BigInt& m) {
  BigInt expected(1);
  BigInt b = base % m;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    expected = (expected * expected) % m;
    if (exp.bit(i)) expected = (expected * b) % m;
  }
  return expected;
}

// Property: Montgomery path agrees with naive square-and-multiply for odd
// moduli across many random cases.
class BigIntModPowProperty : public ::testing::TestWithParam<int> {};

TEST_P(BigIntModPowProperty, MontgomeryMatchesNaive) {
  auto rng = HmacDrbg::from_seed(2000 + static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 5; ++iter) {
    BigInt m = BigInt::random_bits(128, rng);
    if (m.is_even()) m = m + BigInt(1);
    BigInt base = BigInt::random_bits(100, rng);
    BigInt exp = BigInt::random_bits(24, rng);
    EXPECT_EQ(BigInt::mod_pow(base, exp, m), naive_mod_pow(base, exp, m));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntModPowProperty, ::testing::Range(0, 8));

// Property at RSA sizes: odd moduli from 33 bits to the 8192-bit key cap
// (an odd count of 32-bit limbs leaves the top 64-bit limb half full),
// including the 512-bit moduli that take the fixed 8-limb Montgomery path and
// 1024 bits beside them, short exponents and exponents either side of each
// window-width step, and the edge bases.  All-ones moduli keep Montgomery
// form equal to the value (R ≡ 1), so all-ones bases and m − 1 reach the
// squaring with every limb saturated.  Exponents stay short on the largest
// moduli so the naive reference stays fast.
TEST(BigIntTest, ModPowMatchesNaiveAtRsaSizes) {
  auto rng = HmacDrbg::from_seed(4000);
  // Exponent lengths at which the window widens (1 → 3 → 4 → 5 → 6 bits).
  const std::size_t kWindowSteps[] = {24, 80, 240, 672};
  const std::pair<std::size_t, std::size_t> kSizes[] = {
      {33, 673},   {512, 673},  {544, 673}, {1024, 673},
      {1056, 673}, {2048, 241}, {4096, 81}, {8192, 25}};
  auto all_ones = [](std::size_t bits) { return (BigInt(1) << bits) - BigInt(1); };
  for (auto [mod_bits, max_exp_bits] : kSizes) {
    BigInt random_m = BigInt::random_bits(mod_bits, rng);
    if (random_m.is_even()) random_m = random_m + BigInt(1);
    std::vector<BigInt> moduli = {random_m};
    if (mod_bits % 64 == 0) moduli.push_back(all_ones(mod_bits));
    if (mod_bits == 512) {
      // The 8-limb kernel's sparse and near-all-ones shapes: 2^511 + 1 and
      // 2^512 − 2^64 + 1.
      moduli.push_back((BigInt(1) << 511) + BigInt(1));
      moduli.push_back((BigInt(1) << 512) - (BigInt(1) << 64) + BigInt(1));
    }
    std::vector<BigInt> exps = {BigInt(1), BigInt(2), BigInt(3), BigInt(65537)};
    for (std::size_t step : kWindowSteps) {
      for (std::size_t bits : {step - 1, step, step + 1}) {
        if (bits <= max_exp_bits) exps.push_back(BigInt::random_bits(bits, rng));
      }
    }
    for (const BigInt& m : moduli) {
      const BigInt bases[] = {BigInt(), BigInt(1), m - BigInt(1),
                              all_ones(mod_bits - 1), all_ones(mod_bits + 64),
                              BigInt::random_below(m, rng),
                              m + BigInt::random_bits(mod_bits + 40, rng)};
      for (const BigInt& exp : exps) {
        for (const BigInt& base : bases) {
          EXPECT_EQ(BigInt::mod_pow(base, exp, m), naive_mod_pow(base, exp, m))
              << "modulus " << m.to_hex() << " exponent bits=" << exp.bit_length()
              << " base bits=" << base.bit_length();
        }
      }
    }
  }
}

TEST(BigIntTest, ModInverseKnownValues) {
  // 3 * 4 = 12 = 1 mod 11.
  EXPECT_EQ(BigInt::mod_inverse(BigInt(3), BigInt(11)), BigInt(4));
  EXPECT_THROW(BigInt::mod_inverse(BigInt(6), BigInt(9)), std::domain_error);
}

TEST(BigIntTest, ModInverseProperty) {
  auto rng = HmacDrbg::from_seed(31);
  BigInt m = BigInt::from_dec("1000000000000000003");  // prime
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::random_below(m - BigInt(2), rng) + BigInt(1);
    BigInt inv = BigInt::mod_inverse(a, m);
    EXPECT_EQ((a * inv) % m, BigInt(1));
  }
}

// An inverse exists only where a and m share no factor, and mod_inverse takes
// odd moduli only.
TEST(BigIntTest, ModInverseRejectsCommonFactorsAndEvenModuli) {
  EXPECT_EQ(BigInt::mod_inverse(BigInt(17), BigInt(13)), BigInt(10));  // 4 · 10 = 3 · 13 + 1
  EXPECT_EQ(BigInt::mod_inverse(BigInt(5), BigInt(1)), BigInt());
  EXPECT_THROW(BigInt::mod_inverse(BigInt(48), BigInt(45)), std::domain_error);  // gcd 3
  EXPECT_THROW(BigInt::mod_inverse(BigInt(0), BigInt(5)), std::domain_error);
  EXPECT_THROW(BigInt::mod_inverse(BigInt(13 * 5), BigInt(13 * 17)), std::domain_error);
  EXPECT_THROW(BigInt::mod_inverse(BigInt(17), BigInt(36)), std::invalid_argument);
  EXPECT_THROW(BigInt::mod_inverse(BigInt(3), BigInt()), std::domain_error);
}

// At RSA widths the inverse agrees with Fermat's a^(p − 2) mod p on primes,
// and on odd composites of several limbs either inverts a or throws.
TEST(BigIntTest, ModInverseMatchesFermatOnPrimesAndInvertsOnComposites) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto rng = HmacDrbg::from_seed(seed);
    const BigInt p = generate_prime(512, rng);
    const BigInt a = BigInt::random_below(p - BigInt(1), rng) + BigInt(1);
    EXPECT_EQ(BigInt::mod_inverse(a, p), BigInt::mod_pow(a, p - BigInt(2), p)) << seed;
    EXPECT_EQ(BigInt::mod_inverse(a + p + p, p), BigInt::mod_inverse(a, p)) << seed;
  }
  auto rng = HmacDrbg::from_seed(4);
  int inverted = 0;
  for (std::size_t bits : {64u, 65u, 200u, 1024u}) {
    for (int i = 0; i < 8; ++i) {
      BigInt m = BigInt::random_bits(bits, rng);
      if (m.is_even()) m = m + BigInt(1);
      const BigInt a = BigInt::random_bits(bits + 3, rng);
      BigInt inv;
      try {
        inv = BigInt::mod_inverse(a, m);
      } catch (const std::domain_error&) {
        continue;
      }
      ++inverted;
      EXPECT_LT(inv, m) << "bits=" << bits;
      EXPECT_EQ((a * inv) % m, BigInt(1)) << "bits=" << bits;
    }
  }
  EXPECT_GT(inverted, 16);
}

TEST(BigIntTest, RandomBelowInRange) {
  auto rng = HmacDrbg::from_seed(8);
  BigInt bound = BigInt::from_hex("10000000000000000000001");
  for (int i = 0; i < 50; ++i) {
    EXPECT_LT(BigInt::random_below(bound, rng), bound);
  }
  EXPECT_THROW(BigInt::random_below(BigInt(), rng), std::domain_error);
}

TEST(BigIntTest, RandomBitsExactWidth) {
  auto rng = HmacDrbg::from_seed(9);
  for (std::size_t bits : {8u, 9u, 31u, 32u, 33u, 512u, 1024u}) {
    BigInt v = BigInt::random_bits(bits, rng);
    EXPECT_EQ(v.bit_length(), bits) << "bits=" << bits;
  }
}

TEST(BigIntTest, BitAccess) {
  BigInt v = BigInt::from_hex("8000000000000001");
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(63));
  EXPECT_FALSE(v.bit(1));
  EXPECT_FALSE(v.bit(64));
  EXPECT_FALSE(v.bit(1000));
}


// Property: products of operands of 512 to 2,559 bits satisfy the ring
// identities and divide back exactly.
class BigIntLargeOperandProperty : public ::testing::TestWithParam<int> {};

TEST_P(BigIntLargeOperandProperty, LargeMultiplicationConsistency) {
  auto rng = HmacDrbg::from_seed(3000 + static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 4; ++iter) {
    std::size_t abits = 512 + static_cast<std::size_t>(rng.u64() % 2048);
    std::size_t bbits = 512 + static_cast<std::size_t>(rng.u64() % 2048);
    BigInt a = BigInt::random_bits(abits, rng);
    BigInt b = BigInt::random_bits(bbits, rng);
    BigInt c = BigInt::random_bits(256, rng);

    // Commutativity.
    EXPECT_EQ(a * b, b * a);
    // Distributivity: a*(b+c) == a*b + a*c.
    EXPECT_EQ(a * (b + c), a * b + a * c);
    // Associativity with a small factor: (a*c)*b == a*(c*b).
    EXPECT_EQ((a * c) * b, a * (c * b));
    // Division inverts multiplication exactly.
    EXPECT_EQ((a * b) / b, a);
    EXPECT_TRUE(((a * b) % b).is_zero());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntLargeOperandProperty, ::testing::Range(0, 6));

TEST(BigIntTest, LargeOperandKnownProduct) {
  // (2^1024 - 1)^2 = 2^2048 - 2^1025 + 1.
  BigInt m = (BigInt(1) << 1024) - BigInt(1);
  BigInt expected = (BigInt(1) << 2048) - (BigInt(1) << 1025) + BigInt(1);
  EXPECT_EQ(m * m, expected);
}

TEST(BigIntTest, HighlyAsymmetricOperands) {
  auto rng = HmacDrbg::from_seed(77);
  BigInt big = BigInt::random_bits(4096, rng);
  BigInt small(12345);
  BigInt product = big * small;
  EXPECT_EQ(product / small, big);
  EXPECT_EQ(product, small * big);
}

}  // namespace
}  // namespace globe::crypto
