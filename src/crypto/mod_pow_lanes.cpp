// The lane kernels (see mod_pow_lanes.hpp).  Only the IFMA functions carry
// the AVX-512 target, so the rest of the library runs on any x86-64 CPU;
// other targets compile only the portable kernel.
#include "crypto/mod_pow_lanes.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace globe::crypto {

namespace {

void check_lanes(const PowLane* lanes, std::size_t count, std::size_t max_bits) {
  if (count > kMaxLanes) throw std::invalid_argument("mod_pow_lanes: more than 8 lanes");
  for (std::size_t i = 0; i < count; ++i) {
    const BigInt& m = *lanes[i].mod;
    if (m.is_even()) throw std::invalid_argument("mod_pow_lanes: even modulus");
    if (m.bit_length() > max_bits) {
      throw std::invalid_argument("mod_pow_lanes: modulus wider than the kernel takes");
    }
  }
}

constexpr std::size_t kAnyWidth = std::numeric_limits<std::size_t>::max();

void portable_pass(const PowLane* lanes, std::size_t count, BigInt* out) {
  check_lanes(lanes, count, kAnyWidth);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = BigInt::mod_pow(*lanes[i].base, *lanes[i].exp, *lanes[i].mod);
  }
}

}  // namespace

namespace detail {
const LaneKernel kPortableLanes{"portable", 1, kAnyWidth, portable_pass};
}  // namespace detail

#if defined(__x86_64__)

#define GLOBE_IFMA_TARGET __attribute__((target("avx512f,avx512ifma")))

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;
using Vec = __m512i;

constexpr std::size_t kLanes = kMaxLanes;  // one per 64-bit element of a Vec
constexpr std::size_t kLimbs = 10;         // 52-bit limbs: R = 2^520
constexpr unsigned kLimbBits = 52;
constexpr std::size_t kRBits = kLimbs * kLimbBits;
constexpr std::size_t kMaxModBits = 512;  // so 4m < R, and 2m fits the top limb
constexpr u64 kLimbMask = (u64{1} << kLimbBits) - 1;
constexpr unsigned kWindowBits = 5;
constexpr std::size_t kEntries = std::size_t{1} << kWindowBits;

/// One value per lane: column l of row j is limb j of lane l.
using Columns = u64[kLimbs][kLanes];

/// The `width` (at most 52) bits of x starting at bit `pos`.
u64 bits_at(const BigInt& x, std::size_t pos, unsigned width) {
  const auto& limbs = x.limbs();
  u128 v = 0;
  for (std::size_t i = 0; i < 3 && pos / 32 + i < limbs.size(); ++i) {
    v |= u128{limbs[pos / 32 + i]} << (32 * i);
  }
  return static_cast<u64>(v >> (pos % 32)) & ((u64{1} << width) - 1);
}

/// Writes x < 2^520 into column `lane` of `out`.
void to_columns(const BigInt& x, Columns& out, std::size_t lane) {
  for (std::size_t j = 0; j < kLimbs; ++j) out[j][lane] = bits_at(x, kLimbBits * j, kLimbBits);
}

/// The value in column `lane` of `in`, whose limbs are each below 2^52.
BigInt from_column(const Columns& in, std::size_t lane) {
  constexpr std::size_t kBytes = (kRBits + 7) / 8;
  util::Bytes be(kBytes);
  for (std::size_t i = 0; i < kBytes; ++i) {
    const std::size_t j = 8 * i / kLimbBits, shift = 8 * i % kLimbBits;
    u64 byte = in[j][lane] >> shift;
    if (shift > kLimbBits - 8 && j + 1 < kLimbs) byte |= in[j + 1][lane] << (kLimbBits - shift);
    be[kBytes - 1 - i] = static_cast<std::uint8_t>(byte);
  }
  return BigInt::from_bytes(be);
}

/// x >> 52 per lane.  This and gather() use the masked intrinsics with a
/// full mask: the unmasked ones start from _mm512_undefined_epi32, on which
/// GCC 12 warns -Wuninitialized at every use.
GLOBE_IFMA_TARGET inline Vec shift_limb(Vec x) {
  return _mm512_maskz_srli_epi64(0xFF, x, kLimbBits);
}

/// out = a·b·R⁻¹ mod m per lane, for a, b < 2m, as a value below 2m
/// (almost-Montgomery: with 4m < R no final subtraction is needed).  Operand
/// scanning, one 52-bit row of b at a time: the row's low halves and the
/// quotient digit's low halves go into the accumulator, which then moves down
/// one limb, and the high halves follow, so no carry is propagated until the
/// end.  A limb of the accumulator gathers at most 40 halves below 2^52.
/// k0 = −m⁻¹ mod 2^52; out may alias a or b.
[[gnu::noinline]] GLOBE_IFMA_TARGET void amm(const Vec* a, const Vec* b, const Vec* m,
                                             Vec k0, Vec* out) {
  const Vec zero = _mm512_setzero_si512();
  Vec acc[kLimbs];
#pragma GCC unroll 10
  for (std::size_t j = 0; j < kLimbs; ++j) acc[j] = zero;
#pragma GCC unroll 10
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const Vec bi = b[i];
#pragma GCC unroll 10
    for (std::size_t j = 0; j < kLimbs; ++j) acc[j] = _mm512_madd52lo_epu64(acc[j], a[j], bi);
    const Vec q = _mm512_madd52lo_epu64(zero, acc[0], k0);
#pragma GCC unroll 10
    for (std::size_t j = 0; j < kLimbs; ++j) acc[j] = _mm512_madd52lo_epu64(acc[j], m[j], q);
    // acc[0] is now a multiple of 2^52: drop the limb, keep its carry.
    const Vec carry = shift_limb(acc[0]);
#pragma GCC unroll 10
    for (std::size_t j = 0; j + 1 < kLimbs; ++j) acc[j] = acc[j + 1];
    acc[kLimbs - 1] = zero;
    acc[0] = _mm512_add_epi64(acc[0], carry);
#pragma GCC unroll 10
    for (std::size_t j = 0; j < kLimbs; ++j) {
      acc[j] = _mm512_madd52hi_epu64(acc[j], a[j], bi);
      acc[j] = _mm512_madd52hi_epu64(acc[j], m[j], q);
    }
  }
  // Back to 52-bit limbs; the value is below 2m < 2^513, so the top limb
  // takes the last carry without overflowing.
  const Vec mask = _mm512_set1_epi64(static_cast<long long>(kLimbMask));
#pragma GCC unroll 10
  for (std::size_t j = 0; j + 1 < kLimbs; ++j) {
    acc[j + 1] = _mm512_add_epi64(acc[j + 1], shift_limb(acc[j]));
    out[j] = _mm512_and_si512(acc[j], mask);
  }
  out[kLimbs - 1] = acc[kLimbs - 1];
}

/// out = a·a·R⁻¹ mod m per lane, for a < 2m, as a value below 2m: amm(a, a)
/// with the square's symmetry used.  Product scanning over 20 columns: each
/// cross product a_i·a_j (i < j) once, its low half to column i + j and its
/// high half to i + j + 1, then every column doubled and the ten squares
/// added; then ten reduction rows, row i adding the quotient digit's
/// multiple of m from column i up and passing column i's carry to i + 1.
/// 320 multiply-adds against amm's 410.  A column gathers at most 19 halves
/// of the square and 20 of the reduction, each below 2^52, and one carry, so
/// it stays below 2^58.  out may alias a.
[[gnu::noinline]] GLOBE_IFMA_TARGET void ams(const Vec* a, const Vec* m, Vec k0, Vec* out) {
  const Vec zero = _mm512_setzero_si512();
  Vec t[2 * kLimbs];
#pragma GCC unroll 20
  for (std::size_t k = 0; k < 2 * kLimbs; ++k) t[k] = zero;
#pragma GCC unroll 10
  for (std::size_t i = 0; i < kLimbs; ++i) {
#pragma GCC unroll 10
    for (std::size_t j = i + 1; j < kLimbs; ++j) {
      t[i + j] = _mm512_madd52lo_epu64(t[i + j], a[i], a[j]);
      t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], a[i], a[j]);
    }
  }
#pragma GCC unroll 10
  for (std::size_t i = 0; i < kLimbs; ++i) {
    t[2 * i] = _mm512_madd52lo_epu64(_mm512_add_epi64(t[2 * i], t[2 * i]), a[i], a[i]);
    t[2 * i + 1] =
        _mm512_madd52hi_epu64(_mm512_add_epi64(t[2 * i + 1], t[2 * i + 1]), a[i], a[i]);
  }
#pragma GCC unroll 10
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const Vec q = _mm512_madd52lo_epu64(zero, t[i], k0);
#pragma GCC unroll 10
    for (std::size_t j = 0; j < kLimbs; ++j) {
      t[i + j] = _mm512_madd52lo_epu64(t[i + j], m[j], q);
      t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], m[j], q);
    }
    // Column i is now a multiple of 2^52: keep only its carry.
    t[i + 1] = _mm512_add_epi64(t[i + 1], shift_limb(t[i]));
  }
  // Columns 10 to 19 are the result, below 2m < 2^513, as in amm.
  const Vec mask = _mm512_set1_epi64(static_cast<long long>(kLimbMask));
#pragma GCC unroll 10
  for (std::size_t j = kLimbs; j + 1 < 2 * kLimbs; ++j) {
    t[j + 1] = _mm512_add_epi64(t[j + 1], shift_limb(t[j]));
    out[j - kLimbs] = _mm512_and_si512(t[j], mask);
  }
  out[kLimbs - 1] = t[2 * kLimbs - 1];
}

GLOBE_IFMA_TARGET void load(const Columns& in, Vec* out) {
  for (std::size_t j = 0; j < kLimbs; ++j) out[j] = _mm512_load_si512(in[j]);
}

GLOBE_IFMA_TARGET void store(const Vec* in, Columns& out) {
  for (std::size_t j = 0; j < kLimbs; ++j) _mm512_store_si512(out[j], in[j]);
}

/// out = each lane's table entry for the window of its exponent that starts
/// at bit `pos`.
GLOBE_IFMA_TARGET void gather(const Columns* table, const BigInt* const* exps,
                              std::size_t pos, Vec* out) {
  alignas(64) long long index[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    index[l] = static_cast<long long>(bits_at(*exps[l], pos, kWindowBits) * kLimbs * kLanes + l);
  }
  const Vec vindex = _mm512_load_si512(index);
  for (std::size_t j = 0; j < kLimbs; ++j) {
    out[j] = _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), 0xFF, vindex,
                                          &table[0][j][0], 8);
  }
}

GLOBE_IFMA_TARGET void ifma_pass(const PowLane* lanes, std::size_t count, BigInt* out) {
  check_lanes(lanes, count, kMaxModBits);
  if (count == 0) return;

  // Per lane: the modulus, −m⁻¹ mod 2^52, and R and base·R reduced mod m.
  // Lanes past `count` repeat lane 0, and their results are dropped.
  alignas(64) Columns mod, one, base;
  alignas(64) u64 k0[kLanes];
  const BigInt* exps[kLanes];
  std::size_t exp_bits = 0;
  for (std::size_t l = 0; l < count; ++l) {
    const BigInt& m = *lanes[l].mod;
    to_columns(m, mod, l);
    u64 inv = 1;  // Newton: each step doubles the correct low bits of m⁻¹
    for (int i = 0; i < 6; ++i) inv *= 2 - m.low_u64() * inv;
    k0[l] = (0 - inv) & kLimbMask;
    to_columns((BigInt(1) << kRBits) % m, one, l);
    to_columns((*lanes[l].base << kRBits) % m, base, l);
    exps[l] = lanes[l].exp;
    exp_bits = std::max(exp_bits, exps[l]->bit_length());
  }
  for (std::size_t l = count; l < kLanes; ++l) {
    for (std::size_t j = 0; j < kLimbs; ++j) {
      mod[j][l] = mod[j][0];
      one[j][l] = one[j][0];
      base[j][l] = base[j][0];
    }
    k0[l] = k0[0];
    exps[l] = exps[0];
  }

  Vec m[kLimbs], acc[kLimbs], t[kLimbs];
  load(mod, m);
  const Vec vk0 = _mm512_load_si512(k0);

  // table[d] = base^d·R mod m, each below 2m.
  alignas(64) Columns table[kEntries];
  std::copy_n(&one[0][0], kLimbs * kLanes, &table[0][0][0]);
  std::copy_n(&base[0][0], kLimbs * kLanes, &table[1][0][0]);
  load(base, t);
  load(base, acc);
  for (std::size_t d = 2; d < kEntries; ++d) {
    amm(acc, t, m, vk0, acc);
    store(acc, table[d]);
  }

  // Fixed windows from the top of the longest exponent; a shorter one's
  // top windows are zero digits, which multiply by R (one).
  const std::size_t windows = (exp_bits + kWindowBits - 1) / kWindowBits;
  if (windows == 0) {
    load(one, acc);
  } else {
    gather(table, exps, (windows - 1) * kWindowBits, acc);
    for (std::size_t w = windows - 1; w-- > 0;) {
      for (unsigned s = 0; s < kWindowBits; ++s) ams(acc, m, vk0, acc);
      gather(table, exps, w * kWindowBits, t);
      amm(acc, t, m, vk0, acc);
    }
  }

  // Out of Montgomery form: acc·1·R⁻¹ ≤ m, equal to m only when the result
  // is 0 mod m.
  for (std::size_t j = 0; j < kLimbs; ++j) t[j] = _mm512_setzero_si512();
  t[0] = _mm512_set1_epi64(1);
  amm(acc, t, m, vk0, acc);
  alignas(64) Columns result;
  store(acc, result);
  for (std::size_t l = 0; l < count; ++l) {
    out[l] = from_column(result, l);
    if (out[l] >= *lanes[l].mod) out[l] = out[l] - *lanes[l].mod;
  }
}

}  // namespace

namespace detail {

bool cpu_has_ifma() {
  static const bool has = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
    if (!((ecx >> 27) & 1)) return false;  // OSXSAVE: XGETBV is usable
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
    const bool avx512f = (ebx >> 16) & 1, ifma = (ebx >> 21) & 1;
    if (!avx512f || !ifma) return false;
    unsigned xcr0 = 0, xcr0_high = 0;
    __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
    // The OS saves SSE, AVX, opmask and both halves of the ZMM registers.
    return (xcr0 & 0xE6) == 0xE6;
  }();
  return has;
}

const LaneKernel kIfmaLanes{"avx512-ifma", kLanes, kMaxModBits, ifma_pass};

}  // namespace detail

#endif  // __x86_64__

const LaneKernel& mod_pow_lanes([[maybe_unused]] std::size_t mod_bits) {
#if defined(__x86_64__)
  if (mod_bits <= detail::kIfmaLanes.max_bits && detail::cpu_has_ifma()) {
    return detail::kIfmaLanes;
  }
#endif
  return detail::kPortableLanes;
}

}  // namespace globe::crypto
