// Arbitrary-precision unsigned integers for the RSA implementation.
//
// Representation: little-endian vector of 32-bit limbs, normalized so the
// most significant limb is non-zero (zero is the empty vector).  All
// arithmetic is correctness-first and variable-time.
//
// Multiplication is the O(n²) schoolbook product; RSA-1024 never multiplies
// two operands of 768 bits or more.
// divmod and mod_pow regroup the limbs as 64-bit limbs with 128-bit
// products.  divmod is Knuth's Algorithm D on 64-bit digits.  mod_pow takes
// odd moduli only, which covers every RSA/prime use in this codebase, and is
// Montgomery arithmetic over fixed exponent windows: one bit up to 23-bit
// exponents, so e = 65537 builds no table, then 3 to 6 bits as the exponent
// grows (5 for the 512-bit CRT and Miller–Rabin exponents of RSA-1024).
// Independent exponentiations can also run eight to a pass through the lane
// kernel (crypto/mod_pow_lanes.hpp), whose portable form calls mod_pow and
// whose AVX-512 IFMA form computes the same values side by side; keygen's
// Miller–Rabin rounds and the two halves of RSA's CRT private-key
// operations take that path.  mod_inverse, like mod_pow, takes odd moduli
// only (keygen inverts q mod p and φ mod e), and runs a binary extended
// Euclid over fixed-width 64-bit limbs in one scratch buffer.
//
// The Montgomery multiply and squaring scan products by column (Koç, Acar
// and Kaliski's FIPS method): column k of a·b + u·m adds every a[j]·b[k−j]
// and u[j]·m[k−j] into one three-limb accumulator, so the products of a
// column are independent and only the accumulator's additions chain.  Each
// of the n low columns picks the quotient digit u[k] that cancels its low
// limb; the n high columns are the result, with one conditional
// subtraction of m at the end.  The squaring sums each column's cross
// products once and adds them twice.  The arithmetic is one template on the
// limb count.  The 8-limb (512-bit) instantiation serves RSA-1024 CRT
// signing and keygen on CPUs without IFMA: its columns unroll fully with u
// and the result on the stack, and its multiply and squaring stay out of
// line, since inlining kilobytes of unrolled code into the window loop ran
// slower.  Any other size runs the same source with loops at run time.
// mod_pow allocates one scratch buffer per call, sized from the modulus, the
// base and the window: modulus, window table, accumulator, the run-time
// kernel's u and result, and the long division that brings the base into
// Montgomery form.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace globe::crypto {

class BigInt {
 public:
  BigInt() = default;
  explicit BigInt(std::uint64_t v);

  /// Parses big-endian bytes (leading zeros allowed).
  static BigInt from_bytes(util::BytesView be);
  /// Parses lower/upper-case hex; throws std::invalid_argument on bad input.
  static BigInt from_hex(std::string_view hex);
  /// Parses decimal digits; throws std::invalid_argument on bad input.
  static BigInt from_dec(std::string_view dec);

  /// Minimal big-endian encoding ("" for zero when pad == 0, otherwise
  /// left-padded with zeros to exactly `pad` bytes; throws if it won't fit).
  util::Bytes to_bytes(std::size_t pad = 0) const;
  std::string to_hex() const;
  std::string to_dec() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool is_even() const { return !is_odd(); }

  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;
  /// Value of bit i (little-endian bit order).
  bool bit(std::size_t i) const;

  /// Least significant 64 bits.
  std::uint64_t low_u64() const;

  static int cmp(const BigInt& a, const BigInt& b);
  friend bool operator==(const BigInt& a, const BigInt& b) { return cmp(a, b) == 0; }
  friend bool operator!=(const BigInt& a, const BigInt& b) { return cmp(a, b) != 0; }
  friend bool operator<(const BigInt& a, const BigInt& b) { return cmp(a, b) < 0; }
  friend bool operator<=(const BigInt& a, const BigInt& b) { return cmp(a, b) <= 0; }
  friend bool operator>(const BigInt& a, const BigInt& b) { return cmp(a, b) > 0; }
  friend bool operator>=(const BigInt& a, const BigInt& b) { return cmp(a, b) >= 0; }

  BigInt operator+(const BigInt& rhs) const;
  /// Requires *this >= rhs; throws std::underflow_error otherwise.
  BigInt operator-(const BigInt& rhs) const;
  BigInt operator*(const BigInt& rhs) const;
  /// Quotient; throws std::domain_error on division by zero.
  BigInt operator/(const BigInt& rhs) const;
  /// Remainder; throws std::domain_error on division by zero.
  BigInt operator%(const BigInt& rhs) const;

  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  /// Quotient and remainder in one pass (Knuth Algorithm D).
  static void divmod(const BigInt& num, const BigInt& den, BigInt& quot, BigInt& rem);

  /// (base ^ exp) mod m in Montgomery form.  m must be odd: a zero modulus
  /// throws std::domain_error and any other even one std::invalid_argument.
  static BigInt mod_pow(const BigInt& base, const BigInt& exp, const BigInt& m);

  /// a⁻¹ mod m, in [0, m), by a binary extended Euclid over fixed-width
  /// limbs.  m must be odd: a zero modulus throws std::domain_error and any
  /// other even one std::invalid_argument; an a that shares a factor with m
  /// throws std::domain_error.
  static BigInt mod_inverse(const BigInt& a, const BigInt& m);

  /// Uniform value in [0, bound) drawn from `rng`.  bound must be > 0.
  static BigInt random_below(const BigInt& bound, util::RandomSource& rng);
  /// Random integer with exactly `bits` bits (MSB forced to 1).
  static BigInt random_bits(std::size_t bits, util::RandomSource& rng);

  const std::vector<std::uint32_t>& limbs() const { return limbs_; }

 private:
  void trim();
  /// The value of n little-endian 64-bit limbs (the width divmod and
  /// mod_pow compute in).
  static BigInt from_limbs64(const std::uint64_t* limbs, std::size_t n);

  std::vector<std::uint32_t> limbs_;
};

}  // namespace globe::crypto
