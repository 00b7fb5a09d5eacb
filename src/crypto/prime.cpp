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
static_assert(kSieveBound <= 1u << 16, "a group of four sieving primes must fit 64 bits");

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

// The odd primes below kSieveBound, in order.
constexpr auto kSievePrimes = [] {
  const auto not_prime = not_prime_below_bound();
  std::array<std::uint16_t, kSievePrimeCount> primes{};
  std::size_t count = 0;
  for (std::uint32_t p = 3; p < kSieveBound; p += 2) {
    if (!not_prime[p]) primes[count++] = static_cast<std::uint16_t>(p);
  }
  return primes;
}();

// Each sieving prime's Barrett reciprocal floor(2^64 / p).
constexpr auto kSieveReciprocals = [] {
  std::array<std::uint64_t, kSievePrimeCount> reciprocals{};
  for (std::size_t i = 0; i < kSievePrimeCount; ++i) {
    reciprocals[i] = ~std::uint64_t{0} / kSievePrimes[i];
  }
  return reciprocals;
}();

// The sieving primes four at a time, in order (the last group holds what is
// left): the group's product Q < 2^64 and the reciprocal of d = Q·2^s, which
// the shift s = clz(Q) gives its top bit, floor((2^128 − 1) / d) − 2^64.
struct SieveGroup {
  std::uint64_t product, reciprocal;
};
constexpr std::size_t kGroupPrimes = 4;
constexpr std::size_t kSieveGroupCount = (kSievePrimeCount + kGroupPrimes - 1) / kGroupPrimes;

// One past the index of group g's last prime.
constexpr std::size_t group_end(std::size_t g) {
  return std::min((g + 1) * kGroupPrimes, kSievePrimeCount);
}

constexpr auto kSieveGroups = [] {
  std::array<SieveGroup, kSieveGroupCount> groups{};
  for (std::size_t g = 0; g < kSieveGroupCount; ++g) {
    std::uint64_t q = 1;
    for (std::size_t i = g * kGroupPrimes; i < group_end(g); ++i) q *= kSievePrimes[i];
    const std::uint64_t d = q << __builtin_clzll(q);
    groups[g] = {q, static_cast<std::uint64_t>(~static_cast<unsigned __int128>(0) / d)};
  }
  return groups;
}();

// x mod p for x < 2^64 and sieving prime i, with no divide: the quotient
// estimate x·floor(2^64 / p) / 2^64 is floor(x / p) or one less, so one
// conditional subtraction finishes.  (As p is odd, floor((2^64 − 1) / p) =
// floor(2^64 / p).)
std::uint64_t reduce(std::uint64_t x, std::size_t i) {
  const std::uint64_t p = kSievePrimes[i];
  const unsigned __int128 product = static_cast<unsigned __int128>(x) * kSieveReciprocals[i];
  const std::uint64_t r = x - static_cast<std::uint64_t>(product >> 64) * p;
  return r >= p ? r - p : r;
}

// The remainder of u1·2^64 + u0 divided by d, for u1 < d, d's top bit set
// and v = floor((2^128 − 1) / d) − 2^64: Möller and Granlund's division by
// an invariant word ("Improved division by invariant integers", 2011,
// Algorithm 4) without its quotient, two multiplies and no divide.
std::uint64_t divide_step(std::uint64_t u1, std::uint64_t u0, std::uint64_t d, std::uint64_t v) {
  const unsigned __int128 q =
      static_cast<unsigned __int128>(v) * u1 +
      (static_cast<unsigned __int128>(u1 + 1) << 64 | u0);
  std::uint64_t r = u0 - static_cast<std::uint64_t>(q >> 64) * d;
  // r exceeds q's low word in most steps, unpredictably: a mask, not a
  // branch, adds d back.
  r += d & (0 - static_cast<std::uint64_t>(r > static_cast<std::uint64_t>(q)));
  return r >= d ? r - d : r;
}

// Groups whose walks over a start's words run interleaved: a walk is a chain
// of dependent division steps, and four chains side by side keep the
// multipliers busy.
constexpr std::size_t kWalks = 4;
static_assert(kSieveGroupCount % kWalks == 0, "the walks take the groups four at a time");

// x mod the product Q of each of the kWalks groups from `first`, for x given
// as words[1..n] (64-bit, least significant first) with words[0] = 0: x·2^s
// reduced modulo d = Q·2^s, one division step per word, is (x mod Q)·2^s.
std::array<std::uint64_t, kWalks> group_residues(const std::vector<std::uint64_t>& words,
                                                 std::size_t first) {
  std::array<unsigned, kWalks> s{};
  std::array<std::uint64_t, kWalks> d{}, r{};
  // Word k of x·2^s takes words[k + 1]'s low bits and words[k]'s high ones;
  // (w >> 1) >> (63 − s) is w >> (64 − s), and 0 when s is 0.
  auto shifted = [](std::uint64_t high, std::uint64_t low, unsigned shift) {
    return high << shift | (low >> 1) >> (63 - shift);
  };
  const std::size_t n = words.size() - 1;
  for (std::size_t i = 0; i < kWalks; ++i) {
    s[i] = static_cast<unsigned>(__builtin_clzll(kSieveGroups[first + i].product));
    d[i] = kSieveGroups[first + i].product << s[i];
    r[i] = shifted(0, words[n], s[i]);  // below 2^s <= d
  }
  for (std::size_t k = n; k > 0; --k) {
    for (std::size_t i = 0; i < kWalks; ++i) {
      r[i] = divide_step(r[i], shifted(words[k], words[k - 1], s[i]), d[i],
                         kSieveGroups[first + i].reciprocal);
    }
  }
  for (std::size_t i = 0; i < kWalks; ++i) r[i] >>= s[i];
  return r;
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
  const auto& limbs = x.limbs();
  std::vector<std::uint64_t> words(1 + (limbs.size() + 1) / 2);
  for (std::size_t i = 0; i < limbs.size(); ++i) {
    words[1 + i / 2] |= std::uint64_t{limbs[i]} << (32 * (i % 2));
  }
  std::vector<std::uint16_t> out(kSievePrimeCount);
  for (std::size_t first = 0; first < kSieveGroupCount; first += kWalks) {
    const std::array<std::uint64_t, kWalks> r = group_residues(words, first);
    for (std::size_t g = first; g < first + kWalks; ++g) {
      for (std::size_t i = g * kGroupPrimes; i < group_end(g); ++i) {
        out[i] = static_cast<std::uint16_t>(reduce(r[g - first], i));
      }
    }
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
    // The entry past the window takes the strikes that miss it: a prime at
    // least as wide as the window has at most one multiple in it, and
    // strikes with no branch on whether it does.
    std::array<bool, kWindow + 1> struck{};
    const std::vector<std::uint16_t> residues = sieve_residues(start);
    for (std::size_t i = 0; i < kSievePrimeCount; ++i) {
      const std::uint64_t p = kSievePrimes[i];
      // The first k at which p divides start + 2k: half of t = −start mod p,
      // or of t + p when t is odd.
      const std::uint64_t t = residues[i] == 0 ? 0 : p - residues[i];
      std::uint64_t k = (t + (t & 1) * p) / 2;
      if (small_start + 2 * k == p) k += p;
      if (p < window) {
        for (; k < window; k += p) struck[k] = true;
      } else {
        struck[std::min<std::uint64_t>(k, window)] = true;
      }
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
