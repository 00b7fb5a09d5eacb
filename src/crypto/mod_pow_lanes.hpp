// Internal to src/crypto: the lane kernel, up to eight independent modular
// exponentiations per pass, each with its own odd modulus, its own base and
// its own exponent.
//
// It has two users, both made of exponentiations that do not depend on each
// other.  Miller–Rabin spends nearly all of RSA-1024 keygen in 512-bit ones:
// one base-2 screening round per sieve survivor, eight to a pass, then 32
// random-base rounds per probable prime, which share its exponent and
// modulus, eight to a pass.  A CRT private-key operation (crypto/rsa.hpp) is
// two, (c mod p)^dp and (c mod q)^dq, as one two-lane pass.  The AVX-512 IFMA
// kernel runs them side by side, one per 64-bit lane of each register (the
// multi-buffer layout of OpenSSL's rsaz_avx512 and of Drucker and Gueron,
// "Fast modular squaring with AVX512IFMA", 2018): a value is ten 52-bit
// limbs, limb j of every lane in register j, and each lane runs its own
// almost-Montgomery arithmetic with R = 2^520 over fixed 5-bit windows from a
// 32-entry table on the pass's stack.  The kernel is one source over its
// register width, and a pass takes the narrowest that holds its lanes: up to
// four lanes run on 256-bit registers with a 10 KB table, five to eight on
// 512-bit registers with a 20 KB one, so a signature's two-lane pass computes
// four lanes.  When every lane of a pass has the same exponent
// and modulus, as a candidate's rounds do, the pass finds −m⁻¹ and R² mod m
// once, brings the bases into Montgomery form with one vector product, and
// loads each window's table row for all lanes; otherwise each lane's entry is
// gathered from its own digit, and a lane whose base is 2 (screening) doubles
// R mod m rather than dividing base·R by m.  The five squarings per window
// take a dedicated squaring step that forms each cross product once and
// doubles it (320 multiply-adds against a product's 410).  As 4m < R,
// products of values below 2m stay below 2m with no conditional subtraction;
// only the result leaves Montgomery form and is reduced, and moduli wider
// than 512 bits do not fit.  The portable kernel runs BigInt::mod_pow on one
// lane after another, on moduli of any width.
//
// mod_pow_lanes() picks the kernel for a modulus width, from CPUID and
// XGETBV, as the SHA hashes pick SHA-NI; there is no option to pick another.
// The kernels are named here so that tests can run both on one CPU, and pass
// the prime search and signing a kernel of another width or one that fails.
#pragma once

#include <cstddef>

#include "crypto/bigint.hpp"

namespace globe::crypto {

/// Most lanes one pass of any kernel takes.
inline constexpr std::size_t kMaxLanes = 8;

/// One exponentiation of a pass: base^exp mod mod.  The modulus must be odd
/// and at most the kernel's max_bits wide; the base and the exponent may be
/// any size.
struct PowLane {
  const BigInt* base;
  const BigInt* exp;
  const BigInt* mod;
};

struct LaneKernel {
  const char* name;      // "avx512-ifma" or "portable"
  std::size_t width;     // lanes one pass runs side by side
  std::size_t max_bits;  // widest modulus a lane may take
  /// out[i] = lanes[i].base ^ lanes[i].exp mod lanes[i].mod for i < count;
  /// out must not alias any lane's values.  count may be anything up to
  /// kMaxLanes; a kernel narrower than count runs the lanes in turn.
  /// Throws std::invalid_argument on a modulus that is even or wider than
  /// max_bits, or on count > kMaxLanes.
  void (*pass)(const PowLane* lanes, std::size_t count, BigInt* out);
};

/// The kernel this process runs on moduli of at most `mod_bits` bits: the
/// IFMA kernel (width 8, at most 512 bits) where CPUID and XGETBV report
/// AVX-512F, AVX-512 IFMA, AVX-512VL and OS-saved ZMM state, else the
/// portable one (width 1, any width).
const LaneKernel& mod_pow_lanes(std::size_t mod_bits);

namespace detail {

extern const LaneKernel kPortableLanes;

#if defined(__x86_64__)
/// True when the IFMA kernel may run here.  Calling kIfmaLanes.pass on any
/// other CPU raises an illegal-instruction fault.
bool cpu_has_ifma();

extern const LaneKernel kIfmaLanes;
#endif

}  // namespace detail

}  // namespace globe::crypto
