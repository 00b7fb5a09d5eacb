#include "crypto/prime.hpp"

#include <stdexcept>

namespace globe::crypto {

namespace {

constexpr std::uint32_t kSmallPrimes[] = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

}  // namespace

bool is_probable_prime(const BigInt& n, util::RandomSource& rng, int rounds) {
  if (n < BigInt(2)) return false;
  for (std::uint32_t p : kSmallPrimes) {
    // n mod p from the top limb down; the running remainder stays below p.
    std::uint64_t rem = 0;
    for (std::size_t i = n.limbs().size(); i-- > 0;) {
      rem = (rem << 32 | n.limbs()[i]) % p;
    }
    if (rem == 0) return n.limbs().size() == 1 && n.limbs()[0] == p;  // n is p
  }
  // n - 1 = d * 2^r with d odd.
  BigInt n_minus_1 = n - BigInt(1);
  BigInt d = n_minus_1;
  std::size_t r = 0;
  while (d.is_even()) {
    d = d >> 1;
    ++r;
  }
  BigInt two(2);
  BigInt n_minus_3 = n - BigInt(3);
  for (int round = 0; round < rounds; ++round) {
    // Base a uniform in [2, n-2].
    BigInt a = BigInt::random_below(n_minus_3, rng) + two;
    BigInt x = BigInt::mod_pow(a, d, n);
    if (x == BigInt(1) || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t i = 1; i < r; ++i) {
      x = (x * x) % n;
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

BigInt generate_prime(std::size_t bits, util::RandomSource& rng, int mr_rounds) {
  if (bits < 8) throw std::invalid_argument("generate_prime: bits < 8");
  for (;;) {
    BigInt candidate = BigInt::random_bits(bits, rng);
    if (candidate.is_even()) candidate = candidate + BigInt(1);
    if (is_probable_prime(candidate, rng, mr_rounds)) return candidate;
  }
}

}  // namespace globe::crypto
