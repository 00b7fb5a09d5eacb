// Probabilistic primality testing and prime generation for RSA keygen.
#pragma once

#include "crypto/bigint.hpp"
#include "util/rng.hpp"

namespace globe::crypto {

/// Miller–Rabin with `rounds` random bases (plus small-prime trial
/// division).  Error probability <= 4^-rounds for composite n.
bool is_probable_prime(const BigInt& n, util::RandomSource& rng, int rounds = 32);

/// Generates a random probable prime with exactly `bits` bits, odd, with its
/// top two bits set, so the product of two such primes has exactly twice
/// their bits.  It draws a random odd start of that form, strikes from the
/// 1,024 odd offsets above it every multiple of an odd prime below 2^16
/// (but not the prime itself), and runs `mr_rounds` Miller–Rabin rounds on
/// the survivors in order.  A new start is drawn only when the window is
/// used up or would pass 2^bits.
/// `bits` must be >= 8.
BigInt generate_prime(std::size_t bits, util::RandomSource& rng, int mr_rounds = 32);

}  // namespace globe::crypto
