#include "crypto/prime.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "crypto/mod_pow_lanes.hpp"

namespace globe::crypto {

namespace {

constexpr std::uint32_t kSmallPrimes[] = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

// generate_prime strikes every multiple of an odd prime below kSieveBound
// from a window of kWindow odd offsets before any Miller–Rabin round runs.
// 2,048 consecutive 512-bit integers hold ~5.8 primes on average, so one
// random start nearly always yields a prime.
constexpr std::uint32_t kSieveBound = 1u << 16;
constexpr std::size_t kWindow = 1024;
static_assert(kSieveBound <= 1u << 16, "SievePrime and residue() need p < 2^16");

// Starts one generate_prime call may draw.  Only broken arithmetic uses them
// up: a window of 512-bit odd numbers holds ~5.8 primes, and at 8 bits, the
// narrowest, 2 of the 32 odd starts have no prime above them.
constexpr int kMaxStarts = 64;

// Sieve of Eratosthenes over [0, kSieveBound): true where i is not prime.
constexpr std::array<bool, kSieveBound> not_prime_below_bound() {
  std::array<bool, kSieveBound> not_prime{};
  not_prime[0] = not_prime[1] = true;
  for (std::uint32_t i = 2; i * i < kSieveBound; ++i) {
    if (not_prime[i]) continue;
    for (std::uint32_t j = i * i; j < kSieveBound; j += i) not_prime[j] = true;
  }
  return not_prime;
}

constexpr std::size_t kSievePrimeCount = [] {
  const auto not_prime = not_prime_below_bound();
  std::size_t count = 0;
  for (std::uint32_t i = 3; i < kSieveBound; i += 2) count += !not_prime[i];
  return count;
}();

// An odd sieving prime with 2^32 and 2^64 reduced mod p, and its Barrett
// reciprocal floor(2^64 / p).
struct SievePrime {
  std::uint64_t reciprocal;
  std::uint16_t p, pow32, pow64;
};

// The odd primes below kSieveBound, in order.
constexpr auto kSievePrimes = [] {
  const auto not_prime = not_prime_below_bound();
  std::array<SievePrime, kSievePrimeCount> primes{};
  std::size_t count = 0;
  for (std::uint64_t p = 3; p < kSieveBound; p += 2) {
    if (not_prime[p]) continue;
    const std::uint64_t pow32 = (std::uint64_t{1} << 32) % p;
    primes[count++] = {~std::uint64_t{0} / p, static_cast<std::uint16_t>(p),
                       static_cast<std::uint16_t>(pow32),
                       static_cast<std::uint16_t>(pow32 * pow32 % p)};
  }
  return primes;
}();

// x mod sp.p for x < 2^64, with no divide: the quotient estimate
// x·floor(2^64 / p) / 2^64 is floor(x / p) or one less, so one conditional
// subtraction finishes.  (As p is odd, floor((2^64 − 1) / p) = floor(2^64 / p).)
std::uint64_t reduce(std::uint64_t x, const SievePrime& sp) {
  const unsigned __int128 product = static_cast<unsigned __int128>(x) * sp.reciprocal;
  const std::uint64_t r = x - static_cast<std::uint64_t>(product >> 64) * sp.p;
  return r >= sp.p ? r - sp.p : r;
}

// The value of `limbs` mod sp.p, one reduction per 64 bits: with p < 2^16,
// rem * (2^64 mod p) + hi * (2^32 mod p) + lo stays below 2^49.
std::uint64_t residue(const std::vector<std::uint32_t>& limbs, const SievePrime& sp) {
  std::size_t i = limbs.size();
  std::uint64_t rem = i % 2 ? reduce(limbs[--i], sp) : 0;
  while (i > 0) {
    i -= 2;
    rem = reduce(rem * sp.pow64 + std::uint64_t{limbs[i + 1]} * sp.pow32 + limbs[i], sp);
  }
  return rem;
}

// Odd n > 3 split as n − 1 = d·2^r with d odd: what a Miller–Rabin round
// of n needs.
struct Candidate {
  BigInt n, n_minus_1, n_minus_3, d;
  std::size_t r = 0;

  explicit Candidate(BigInt value)
      : n(std::move(value)), n_minus_1(n - BigInt(1)), n_minus_3(n - BigInt(3)), d(n_minus_1) {
    while (d.is_even()) {
      d = d >> 1;
      ++r;
    }
  }

  /// A round's base, uniform in [2, n − 2].
  BigInt draw_base(util::RandomSource& rng) const {
    return BigInt::random_below(n_minus_3, rng) + BigInt(2);
  }

  /// False when x = a^d mod n shows a to be a witness, which proves n
  /// composite: x is neither 1 nor n − 1, and squaring it r − 1 times never
  /// reaches n − 1.
  bool round_passes(BigInt x) const {
    if (x == BigInt(1) || x == n_minus_1) return true;
    for (std::size_t i = 1; i < r; ++i) {
      x = (x * x) % n;
      if (x == n_minus_1) return true;
    }
    return false;
  }
};

// `rounds` Miller–Rabin rounds of c: round 0 with base `first`, the rest
// with bases drawn from rng in round order, a kernel pass of bases at a
// time.  Stops at the first pass that holds a witness.
bool random_base_rounds(const Candidate& c, BigInt first, util::RandomSource& rng,
                        int rounds, const LaneKernel& kernel) {
  std::array<BigInt, kMaxLanes> bases, x;
  std::array<PowLane, kMaxLanes> lanes;
  bases[0] = std::move(first);
  std::size_t drawn = 1;
  for (int done = 0; done < rounds;) {
    const std::size_t count = std::min(kernel.width, static_cast<std::size_t>(rounds - done));
    for (; drawn < count; ++drawn) bases[drawn] = c.draw_base(rng);
    for (std::size_t i = 0; i < count; ++i) lanes[i] = {&bases[i], &c.d, &c.n};
    kernel.pass(lanes.data(), count, x.data());
    for (std::size_t i = 0; i < count; ++i) {
      if (!c.round_passes(std::move(x[i]))) return false;
    }
    done += static_cast<int>(count);
    drawn = 0;
  }
  return true;
}

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
  if (rounds <= 0) return true;
  const Candidate c(n);
  return random_base_rounds(c, c.draw_base(rng), rng, rounds, mod_pow_lanes(n.bit_length()));
}

BigInt generate_prime(std::size_t bits, util::RandomSource& rng, int mr_rounds) {
  return detail::generate_prime(bits, rng, mr_rounds, mod_pow_lanes(bits));
}

namespace detail {

std::vector<std::uint16_t> sieve_residues(const BigInt& x) {
  std::vector<std::uint16_t> out(kSievePrimes.size());
  for (std::size_t i = 0; i < kSievePrimes.size(); ++i) {
    out[i] = static_cast<std::uint16_t>(residue(x.limbs(), kSievePrimes[i]));
  }
  return out;
}

BigInt generate_prime(std::size_t bits, util::RandomSource& rng, int mr_rounds,
                      const LaneKernel& kernel) {
  if (bits < 8) throw std::invalid_argument("generate_prime: bits < 8");
  const BigInt top = BigInt(1) << bits;
  const BigInt two(2);
  for (int starts = 0; starts < kMaxStarts; ++starts) {
    // A random odd start in [1.5 * 2^(bits-1), 2^bits): bits-1 random bits
    // with their top bit forced, under a forced top bit.
    BigInt start = (BigInt(1) << (bits - 1)) + BigInt::random_bits(bits - 1, rng);
    if (start.is_even()) start = start + BigInt(1);
    // Only offsets k with start + 2k < 2^bits keep `bits` bits.
    std::size_t window = kWindow;
    BigInt room = top - start;
    if (room < BigInt(2 * kWindow)) window = (room.low_u64() + 1) / 2;

    // Below kSieveBound a candidate can be a sieving prime itself, which is
    // not struck.
    const std::uint64_t small_start = start.bit_length() <= 32 ? start.low_u64() : 0;
    std::array<bool, kWindow> struck{};
    const std::vector<std::uint16_t> residues = sieve_residues(start);
    for (std::size_t i = 0; i < kSievePrimes.size(); ++i) {
      const std::uint64_t p = kSievePrimes[i].p;
      // The first k at which p divides start + 2k; (p + 1) / 2 inverts 2.
      std::uint64_t k = reduce((p - residues[i]) * ((p + 1) / 2), kSievePrimes[i]);
      if (small_start + 2 * k == p) k += p;
      for (; k < window; k += p) struck[k] = true;
    }
    // The sieve has already struck every multiple of the trial-division
    // primes.  The survivors go through in order, a kernel pass at a time.
    // A wider kernel gives each group one base-2 round, drawing nothing; a
    // one-lane kernel would pay one more exponentiation per probable prime
    // for it, so there each candidate goes straight to its random bases.
    const bool base_2 = kernel.width > 1;
    std::vector<Candidate> group;
    std::array<PowLane, kMaxLanes> lanes;
    std::array<BigInt, kMaxLanes> x;
    for (std::size_t k = 0; k < window;) {
      group.clear();
      for (; k < window && group.size() < kernel.width; ++k) {
        if (!struck[k]) group.emplace_back(start + BigInt(2 * k));
      }
      if (base_2) {
        for (std::size_t i = 0; i < group.size(); ++i) {
          lanes[i] = {&two, &group[i].d, &group[i].n};
        }
        kernel.pass(lanes.data(), group.size(), x.data());
      }
      for (std::size_t i = 0; i < group.size(); ++i) {
        // Round 0's base is drawn for every candidate reached, as when each
        // candidate's first round was a random one, so the DRBG stream and
        // every seeded key stay as they were.
        BigInt first = mr_rounds > 0 ? group[i].draw_base(rng) : BigInt();
        if (base_2 && !group[i].round_passes(std::move(x[i]))) continue;
        if (random_base_rounds(group[i], std::move(first), rng, mr_rounds, kernel)) {
          return group[i].n;
        }
      }
    }
  }
  throw std::runtime_error("generate_prime: no prime above " + std::to_string(kMaxStarts) +
                           " random starts; the modular arithmetic is broken");
}

}  // namespace detail

}  // namespace globe::crypto
