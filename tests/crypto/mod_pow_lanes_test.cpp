#include "crypto/mod_pow_lanes.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/prime.hpp"
#include "crypto/rsa.hpp"

namespace globe::crypto {
namespace {

struct Case {
  BigInt base, exp, mod;
};

BigInt random_odd(std::size_t bits, util::RandomSource& rng) {
  BigInt m = BigInt::random_bits(bits, rng);
  return m.is_odd() ? m : m + BigInt(1);
}

// Runs `cases` as one pass of `kernel` and compares every lane with
// BigInt::mod_pow.
void expect_pass_matches(const LaneKernel& kernel, const std::vector<Case>& cases) {
  ASSERT_LE(cases.size(), kMaxLanes);
  std::array<PowLane, kMaxLanes> lanes;
  std::array<BigInt, kMaxLanes> out;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    lanes[i] = {&cases[i].base, &cases[i].exp, &cases[i].mod};
  }
  kernel.pass(lanes.data(), cases.size(), out.data());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    EXPECT_EQ(out[i].to_hex(), BigInt::mod_pow(c.base, c.exp, c.mod).to_hex())
        << kernel.name << " lane " << i << " of " << cases.size() << ": base=" << c.base.to_hex()
        << " exp=" << c.exp.to_hex() << " mod=" << c.mod.to_hex();
  }
}

// Each kernel under its name; the IFMA one skips where CPUID or XGETBV rules
// it out.
class LaneKernelTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "portable") {
      kernel_ = &detail::kPortableLanes;
      return;
    }
#if defined(__x86_64__)
    if (detail::cpu_has_ifma()) {
      kernel_ = &detail::kIfmaLanes;
      return;
    }
    GTEST_SKIP() << "CPUID or XGETBV reports no AVX-512 IFMA and VL with OS-saved ZMM state";
#else
    GTEST_SKIP() << "the IFMA kernel is x86-64 only";
#endif
  }

  const LaneKernel& kernel() const { return *kernel_; }

 private:
  const LaneKernel* kernel_ = nullptr;
};

TEST_P(LaneKernelTest, RandomFullPassesMatchReference) {
  auto rng = HmacDrbg::from_seed(2501);
  for (int pass = 0; pass < 24; ++pass) {
    std::vector<Case> cases;
    for (std::size_t i = 0; i < kMaxLanes; ++i) {
      const std::size_t bits = 510 + i % 3;
      BigInt mod = random_odd(bits, rng);
      cases.push_back({BigInt::random_below(mod, rng), BigInt::random_bits(bits, rng), mod});
    }
    expect_pass_matches(kernel(), cases);
  }
}

TEST_P(LaneKernelTest, MixedModulusWidthsInOnePass) {
  auto rng = HmacDrbg::from_seed(2502);
  std::vector<Case> cases;
  for (std::size_t bits : {3u, 64u, 255u, 256u, 384u, 511u, 512u, 512u}) {
    BigInt mod = random_odd(bits, rng);
    cases.push_back({BigInt::random_bits(bits + 7, rng), BigInt::random_bits(512, rng), mod});
  }
  expect_pass_matches(kernel(), cases);
}

TEST_P(LaneKernelTest, EdgeBases) {
  auto rng = HmacDrbg::from_seed(2503);
  const BigInt mod = random_odd(512, rng);
  const BigInt exp = BigInt::random_bits(512, rng);
  expect_pass_matches(kernel(), {{BigInt(), exp, mod},
                                 {BigInt(1), exp, mod},
                                 {mod - BigInt(1), exp, mod},
                                 {mod, exp, mod},
                                 {mod + BigInt(1), exp, mod},
                                 {mod + mod + BigInt(5), exp, mod},
                                 {BigInt::random_bits(1024, rng), exp, mod},
                                 {BigInt(2), exp, mod}});
}

// Moduli with zero divisors: a power of a base that shares a factor with m
// can be 0 mod m though the base is not, and then the almost-Montgomery
// value before the final reduction can be m itself.
TEST_P(LaneKernelTest, PowersThatVanishModM) {
  std::vector<Case> cases;
  BigInt power_of_3(1);
  for (std::size_t k = 1; k <= 320; ++k) {
    power_of_3 = power_of_3 * BigInt(3);
    if (k % 40 == 0) cases.push_back({BigInt(3 * (k / 40)), BigInt(k + 1), power_of_3});
  }
  expect_pass_matches(kernel(), cases);
}

TEST_P(LaneKernelTest, EdgeExponents) {
  auto rng = HmacDrbg::from_seed(2504);
  const BigInt mod = random_odd(512, rng);
  const BigInt base = BigInt::random_below(mod, rng);
  // Beside full-width exponents, a short one's top windows are all zero
  // digits, as are the middle windows of 2^511 + 1.
  expect_pass_matches(kernel(), {{base, BigInt(), mod},
                                 {base, BigInt(1), mod},
                                 {base, BigInt(2), mod},
                                 {base, BigInt(0x1F3), mod},
                                 {base, (BigInt(1) << 511) + BigInt(1), mod},
                                 {base, BigInt::random_bits(512, rng), mod},
                                 {base, (BigInt(1) << 512) - BigInt(1), mod},
                                 {base, BigInt::random_bits(300, rng), mod}});
  // A pass whose every exponent is 0, 1 or 2.
  expect_pass_matches(kernel(), {{base, BigInt(), mod},
                                 {base, BigInt(1), mod},
                                 {base, BigInt(2), mod},
                                 {BigInt(), BigInt(), mod}});
}

// Exponents 2^k run squarings only: every window digit below the top one is
// zero.  On moduli just above 2^511 and just below 2^512 the squaring step's
// doubled cross products peak; the base m − 1 squares to 1, m − 2 and the
// rest to values spread over the modulus.
TEST_P(LaneKernelTest, PureSquaringsOnModuliAtTheEdgesOf512Bits) {
  auto rng = HmacDrbg::from_seed(2507);
  const BigInt two_511 = BigInt(1) << 511, two_512 = BigInt(1) << 512;
  for (const BigInt& mod : {two_511 + BigInt(1), two_511 + BigInt(0x1F7), two_512 - BigInt(3),
                            two_512 - BigInt(1)}) {
    const BigInt m1 = mod - BigInt(1), m2 = mod - BigInt(2);
    expect_pass_matches(kernel(), {{m1, BigInt(1) << 1, mod},
                                   {m1, BigInt(1) << 5, mod},
                                   {m1, BigInt(1) << 511, mod},
                                   {m2, BigInt(1) << 100, mod},
                                   {m2, BigInt(1) << 512, mod},
                                   {two_512 - BigInt(1), BigInt(1) << 257, mod},
                                   {BigInt::random_below(mod, rng), BigInt(1) << 64, mod},
                                   {BigInt::random_below(mod, rng), BigInt(1) << 510, mod}});
  }
}

TEST_P(LaneKernelTest, PassesOfOneToEightLanes) {
  auto rng = HmacDrbg::from_seed(2505);
  for (std::size_t count = 1; count <= kMaxLanes; ++count) {
    std::vector<Case> cases;
    for (std::size_t i = 0; i < count; ++i) {
      BigInt mod = random_odd(512, rng);
      cases.push_back({BigInt::random_below(mod, rng), BigInt::random_bits(512, rng), mod});
    }
    expect_pass_matches(kernel(), cases);
  }
}

TEST_P(LaneKernelTest, RejectsEvenModulusAndTooManyLanes) {
  const BigInt base(3), exp(5), odd(7), even(8);
  std::array<BigInt, kMaxLanes + 1> out;
  const PowLane even_lane{&base, &exp, &even};
  EXPECT_THROW(kernel().pass(&even_lane, 1, out.data()), std::invalid_argument);
  std::array<PowLane, kMaxLanes + 1> lanes;
  lanes.fill({&base, &exp, &odd});
  EXPECT_THROW(kernel().pass(lanes.data(), lanes.size(), out.data()), std::invalid_argument);
}

// The IFMA kernel takes moduli of at most 512 bits; the portable one, which
// the prime search runs above that, takes any width.
TEST_P(LaneKernelTest, WideModuliRunOnlyUpToMaxBits) {
  auto rng = HmacDrbg::from_seed(2506);
  for (std::size_t bits : {513u, 768u, 1024u}) {
    const BigInt mod = (BigInt(1) << (bits - 1)) + random_odd(bits - 1, rng);
    const std::vector<Case> cases = {
        {BigInt::random_below(mod, rng), BigInt::random_bits(bits, rng), mod}};
    if (bits <= kernel().max_bits) {
      expect_pass_matches(kernel(), cases);
    } else {
      BigInt out;
      const PowLane lane{&cases[0].base, &cases[0].exp, &cases[0].mod};
      EXPECT_THROW(kernel().pass(&lane, 1, &out), std::invalid_argument) << bits;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, LaneKernelTest, ::testing::Values("portable", "ifma"),
                         [](const auto& info) { return info.param; });

TEST(ModPowLanesTest, ProcessRunsIfmaExactlyWhereTheCpuHasIt) {
#if defined(__x86_64__)
  const bool ifma = detail::cpu_has_ifma();
#else
  const bool ifma = false;
#endif
  EXPECT_EQ(std::string(mod_pow_lanes(512).name), ifma ? "avx512-ifma" : "portable");
  EXPECT_EQ(mod_pow_lanes(512).width, ifma ? kMaxLanes : 1u);
  EXPECT_EQ(&mod_pow_lanes(513), &detail::kPortableLanes);
}

// Every lane count through the IFMA kernel, so that passes of up to four
// lanes run on 256-bit registers and wider ones on 512-bit registers, in the
// three shapes the kernel's users give it: lanes each with their own base,
// exponent and modulus (signing's CRT halves); lanes that share one exponent
// and one modulus, whose window rows the kernel loads rather than gathers
// (a candidate's Miller–Rabin rounds); and lanes that share base 2 (keygen's
// screening pass).  Each result must equal the portable kernel's.
TEST(ModPowLanesTest, IfmaMatchesPortableAtEveryLaneCountInEveryShape) {
#if defined(__x86_64__)
  if (!detail::cpu_has_ifma()) {
    GTEST_SKIP() << "CPUID or XGETBV reports no AVX-512 IFMA and VL with OS-saved ZMM state";
  }
  auto rng = HmacDrbg::from_seed(2508);
  const BigInt two(2);
  for (std::size_t count = 1; count <= kMaxLanes; ++count) {
    std::array<BigInt, kMaxLanes> base, exp, mod;
    const BigInt shared_mod = random_odd(512, rng), shared_exp = BigInt::random_bits(511, rng);
    for (std::size_t i = 0; i < count; ++i) {
      mod[i] = random_odd(512 - i % 2, rng);
      base[i] = BigInt::random_below(mod[i], rng);
      exp[i] = BigInt::random_bits(512 - 3 * i, rng);
    }
    struct Shape {
      const char* name;
      std::function<PowLane(std::size_t)> lane;
    };
    const Shape shapes[] = {
        {"distinct", [&](std::size_t i) { return PowLane{&base[i], &exp[i], &mod[i]}; }},
        {"shared exponent and modulus",
         [&](std::size_t i) { return PowLane{&base[i], &shared_exp, &shared_mod}; }},
        {"shared base 2", [&](std::size_t i) { return PowLane{&two, &exp[i], &mod[i]}; }},
    };
    for (const Shape& shape : shapes) {
      std::array<PowLane, kMaxLanes> lanes;
      for (std::size_t i = 0; i < count; ++i) lanes[i] = shape.lane(i);
      std::array<BigInt, kMaxLanes> ifma, portable;
      detail::kIfmaLanes.pass(lanes.data(), count, ifma.data());
      detail::kPortableLanes.pass(lanes.data(), count, portable.data());
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(ifma[i], portable[i]) << shape.name << ": lane " << i << " of " << count;
      }
    }
  }
#else
  GTEST_SKIP() << "the IFMA kernel is x86-64 only";
#endif
}

// RsaTest.SeededKeygenIsByteStable's seeds: rsa_generate draws p, then q,
// from one stream.  The prime loop gives the same primes at width 1 and
// width 8 on these seeds, so every kernel gives the same keys.
TEST(ModPowLanesTest, GoldenKeySeedsGiveTheSamePrimesAtWidthsOneAndEight) {
  const LaneKernel portable8{"portable", kMaxLanes, detail::kPortableLanes.max_bits,
                             detail::kPortableLanes.pass};
  std::vector<const LaneKernel*> kernels = {&detail::kPortableLanes, &portable8};
#if defined(__x86_64__)
  if (detail::cpu_has_ifma()) kernels.push_back(&detail::kIfmaLanes);
#endif
  const std::pair<std::uint64_t, std::size_t> kGolden[] = {
      {4242, 1024}, {31337, 512}, {0x6c697665'6b657973ull, 1024}};
  for (auto [seed, bits] : kGolden) {
    auto key_rng = HmacDrbg::from_seed(seed);
    const RsaKeyPair key = rsa_generate(bits, key_rng);
    const util::Bytes after_key = key_rng.bytes(16);
    for (const LaneKernel* kernel : kernels) {
      auto rng = HmacDrbg::from_seed(seed);
      BigInt p = detail::generate_prime(bits / 2, rng, 32, *kernel);
      BigInt q = detail::generate_prime(bits - bits / 2, rng, 32, *kernel);
      if (p < q) std::swap(p, q);
      const std::string where = "seed=" + std::to_string(seed) + " " + kernel->name +
                                " width " + std::to_string(kernel->width);
      EXPECT_EQ(p, key.priv.p) << where;
      EXPECT_EQ(q, key.priv.q) << where;
      // Both streams stand at the same place after the search.
      EXPECT_EQ(rng.bytes(16), after_key) << where;
    }
  }
}

}  // namespace
}  // namespace globe::crypto
