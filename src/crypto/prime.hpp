// Probabilistic primality testing and prime generation for RSA keygen.
//
// Miller–Rabin runs on the lane kernel (crypto/mod_pow_lanes.hpp), a kernel
// pass of exponentiations at a time: eight side by side where the CPU has
// AVX-512 IFMA and the modulus has at most 512 bits, one at a time
// elsewhere.  On one lane the prime search is a plain loop of random-base
// rounds per candidate; eight lanes draw the same bases from the DRBG stream,
// and so give the same primes and keys, unless the search reaches a
// composite that passes base 2 or its first random base (see
// generate_prime), which is rare at RSA sizes but not ruled out.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/bigint.hpp"
#include "util/rng.hpp"

namespace globe::crypto {

struct LaneKernel;

/// Miller–Rabin with `rounds` random bases (plus small-prime trial
/// division).  Error probability <= 4^-rounds for composite n.  The bases
/// are drawn in round order, a kernel pass of them at a time, and the test
/// stops at the first pass that holds a witness.
bool is_probable_prime(const BigInt& n, util::RandomSource& rng, int rounds = 32);

/// Generates a random probable prime with exactly `bits` bits, odd, with its
/// top two bits set, so the product of two such primes has exactly twice
/// their bits.  It draws a random odd start of that form, strikes from the
/// 1,024 odd offsets above it every multiple of an odd prime below 2^16
/// (but not the prime itself), and tests the survivors in order, in groups
/// as wide as the lane kernel.  On a one-lane kernel each candidate in turn
/// runs `mr_rounds` random-base rounds, each drawing its base, and the
/// first to pass them all is returned.  On a wider kernel each group first
/// gets one base-2 strong-probable-prime pass, which draws nothing from
/// `rng`; then each candidate in turn draws its round-0 base, as the one-lane
/// loop would, and only a base-2 probable prime goes on to the rounds (that
/// base first), drawing the rest of its bases a pass at a time.  A base-2
/// failure proves a number composite, so that test is stronger, and both
/// return the same primes after the same draws unless a composite passes
/// base 2 (eight lanes then draw up to seven bases more before rejecting
/// it) or its round-0 base (one lane then draws more).  A new start is
/// drawn only when the window is used up or would pass 2^bits; after 64
/// starts, which only broken arithmetic uses up, it throws
/// std::runtime_error.  `bits` must be >= 8.
BigInt generate_prime(std::size_t bits, util::RandomSource& rng, int mr_rounds = 32);

namespace detail {

/// x mod p for every odd prime p below 2^16, in increasing order of p: the
/// residues generate_prime's sieve strikes from, with no hardware divide.
/// The primes are taken four at a time, whose product Q fits 64 bits: one
/// walk over x's 64-bit words per group reduces x mod Q with one two-multiply
/// division step per word (Möller and Granlund's, by a precomputed
/// reciprocal of Q shifted to its top bit), four walks interleaved, and each
/// prime's Barrett reciprocal then reduces its group's remainder: two
/// multiplies per word for four primes.  The tables (primes, their
/// reciprocals and the groups') are 91 KB of read-only data.
std::vector<std::uint16_t> sieve_residues(const BigInt& x);

/// generate_prime on a given kernel, which must take `bits`-bit moduli, for
/// tests to run it at other widths and on kernels that fail.
BigInt generate_prime(std::size_t bits, util::RandomSource& rng, int mr_rounds,
                      const LaneKernel& kernel);

}  // namespace detail

}  // namespace globe::crypto
