// The lane kernels (see mod_pow_lanes.hpp).  Only the IFMA functions carry
// the AVX-512 target, so the rest of the library runs on any x86-64 CPU;
// other targets compile only the portable kernel.
#include "crypto/mod_pow_lanes.hpp"

#include <algorithm>
#include <array>
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

#define GLOBE_IFMA_TARGET __attribute__((target("avx512f,avx512vl,avx512ifma")))

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr std::size_t kLimbs = 10;  // 52-bit limbs: R = 2^520
constexpr unsigned kLimbBits = 52;
constexpr std::size_t kRBits = kLimbs * kLimbBits;
constexpr std::size_t kMaxModBits = 512;  // so 4m < R, and 2m fits the top limb
constexpr u64 kLimbMask = (u64{1} << kLimbBits) - 1;
constexpr unsigned kWindowBits = 5;
constexpr std::size_t kEntries = std::size_t{1} << kWindowBits;

// The kernel is one source over its register width: Simd<L> holds L lanes,
// one per 64-bit element, and names every vector instruction the kernel
// uses.  Passes of up to four lanes run on 256-bit registers, wider ones on
// 512-bit registers.
template <std::size_t L>
struct Simd;

template <>
struct Simd<4> {
  using V = __m256i;
  GLOBE_IFMA_TARGET static V zero() { return _mm256_setzero_si256(); }
  GLOBE_IFMA_TARGET static V splat(u64 x) { return _mm256_set1_epi64x(static_cast<long long>(x)); }
  GLOBE_IFMA_TARGET static V add(V a, V b) { return _mm256_add_epi64(a, b); }
  GLOBE_IFMA_TARGET static V low_limb(V x) { return _mm256_and_si256(x, splat(kLimbMask)); }
  GLOBE_IFMA_TARGET static V shift_limb(V x) { return _mm256_srli_epi64(x, kLimbBits); }
  GLOBE_IFMA_TARGET static V madd_lo(V acc, V a, V b) { return _mm256_madd52lo_epu64(acc, a, b); }
  GLOBE_IFMA_TARGET static V madd_hi(V acc, V a, V b) { return _mm256_madd52hi_epu64(acc, a, b); }
  /// Element l is base[index[l]].
  GLOBE_IFMA_TARGET static V gather(V index, const u64* base) {
    return _mm256_i64gather_epi64(reinterpret_cast<const long long*>(base), index, 8);
  }
};

// shift_limb and gather use the masked intrinsics with a full mask: the
// unmasked 512-bit ones start from _mm512_undefined_epi32, on which GCC 12
// warns -Wuninitialized at every use.
template <>
struct Simd<8> {
  using V = __m512i;
  GLOBE_IFMA_TARGET static V zero() { return _mm512_setzero_si512(); }
  GLOBE_IFMA_TARGET static V splat(u64 x) { return _mm512_set1_epi64(static_cast<long long>(x)); }
  GLOBE_IFMA_TARGET static V add(V a, V b) { return _mm512_add_epi64(a, b); }
  GLOBE_IFMA_TARGET static V low_limb(V x) { return _mm512_and_si512(x, splat(kLimbMask)); }
  GLOBE_IFMA_TARGET static V shift_limb(V x) { return _mm512_maskz_srli_epi64(0xFF, x, kLimbBits); }
  GLOBE_IFMA_TARGET static V madd_lo(V acc, V a, V b) { return _mm512_madd52lo_epu64(acc, a, b); }
  GLOBE_IFMA_TARGET static V madd_hi(V acc, V a, V b) { return _mm512_madd52hi_epu64(acc, a, b); }
  GLOBE_IFMA_TARGET static V gather(V index, const u64* base) {
    return _mm512_mask_i64gather_epi64(zero(), 0xFF, index, base, 8);
  }
};

/// One value per lane: column l of row j is limb j of lane l.
template <std::size_t L>
using Columns = u64[kLimbs][L];

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
template <std::size_t L>
void to_columns(const BigInt& x, Columns<L>& out, std::size_t lane) {
  for (std::size_t j = 0; j < kLimbs; ++j) out[j][lane] = bits_at(x, kLimbBits * j, kLimbBits);
}

/// Copies column `lane` of `c` into columns `from` to L − 1.
template <std::size_t L>
void repeat_column(Columns<L>& c, std::size_t lane, std::size_t from) {
  for (std::size_t j = 0; j < kLimbs; ++j) std::fill(&c[j][from], &c[j][L], c[j][lane]);
}

/// The value in column `lane` of `in`, whose limbs are each below 2^52.
template <std::size_t L>
BigInt from_column(const Columns<L>& in, std::size_t lane) {
  constexpr std::size_t kBytes = (kRBits + 7) / 8;
  std::array<std::uint8_t, kBytes> be;
  for (std::size_t i = 0; i < kBytes; ++i) {
    const std::size_t j = 8 * i / kLimbBits, shift = 8 * i % kLimbBits;
    u64 byte = in[j][lane] >> shift;
    if (shift > kLimbBits - 8 && j + 1 < kLimbs) byte |= in[j + 1][lane] << (kLimbBits - shift);
    be[kBytes - 1 - i] = static_cast<std::uint8_t>(byte);
  }
  return BigInt::from_bytes(be);
}

/// −m⁻¹ mod 2^52.
u64 montgomery_k0(const BigInt& m) {
  u64 inv = 1;  // Newton: each step doubles the correct low bits of m⁻¹
  for (int i = 0; i < 6; ++i) inv *= 2 - m.low_u64() * inv;
  return (0 - inv) & kLimbMask;
}

bool is_two(const BigInt& x) { return x.limbs().size() == 1 && x.limbs()[0] == 2; }

/// out = a·b·R⁻¹ mod m per lane, for a, b < 2m, as a value below 2m
/// (almost-Montgomery: with 4m < R no final subtraction is needed).  Operand
/// scanning, one 52-bit row of b at a time: the row's low halves and the
/// quotient digit's low halves go into the accumulator, which then moves down
/// one limb, and the high halves follow, so no carry is propagated until the
/// end.  A limb of the accumulator gathers at most 40 halves below 2^52.
/// k0 = −m⁻¹ mod 2^52; out may alias a or b.
template <std::size_t L>
[[gnu::noinline]] GLOBE_IFMA_TARGET void amm(const typename Simd<L>::V* a,
                                             const typename Simd<L>::V* b,
                                             const typename Simd<L>::V* m,
                                             typename Simd<L>::V k0, typename Simd<L>::V* out) {
  using S = Simd<L>;
  typename S::V acc[kLimbs];
#pragma GCC unroll 10
  for (std::size_t j = 0; j < kLimbs; ++j) acc[j] = S::zero();
#pragma GCC unroll 10
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const auto bi = b[i];
#pragma GCC unroll 10
    for (std::size_t j = 0; j < kLimbs; ++j) acc[j] = S::madd_lo(acc[j], a[j], bi);
    const auto q = S::madd_lo(S::zero(), acc[0], k0);
#pragma GCC unroll 10
    for (std::size_t j = 0; j < kLimbs; ++j) acc[j] = S::madd_lo(acc[j], m[j], q);
    // acc[0] is now a multiple of 2^52: drop the limb, keep its carry.
    const auto carry = S::shift_limb(acc[0]);
#pragma GCC unroll 10
    for (std::size_t j = 0; j + 1 < kLimbs; ++j) acc[j] = acc[j + 1];
    acc[kLimbs - 1] = S::zero();
    acc[0] = S::add(acc[0], carry);
#pragma GCC unroll 10
    for (std::size_t j = 0; j < kLimbs; ++j) {
      acc[j] = S::madd_hi(acc[j], a[j], bi);
      acc[j] = S::madd_hi(acc[j], m[j], q);
    }
  }
  // Back to 52-bit limbs; the value is below 2m < 2^513, so the top limb
  // takes the last carry without overflowing.
#pragma GCC unroll 10
  for (std::size_t j = 0; j + 1 < kLimbs; ++j) {
    acc[j + 1] = S::add(acc[j + 1], S::shift_limb(acc[j]));
    out[j] = S::low_limb(acc[j]);
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
template <std::size_t L>
[[gnu::noinline]] GLOBE_IFMA_TARGET void ams(const typename Simd<L>::V* a,
                                             const typename Simd<L>::V* m,
                                             typename Simd<L>::V k0, typename Simd<L>::V* out) {
  using S = Simd<L>;
  typename S::V t[2 * kLimbs];
#pragma GCC unroll 20
  for (std::size_t k = 0; k < 2 * kLimbs; ++k) t[k] = S::zero();
#pragma GCC unroll 10
  for (std::size_t i = 0; i < kLimbs; ++i) {
#pragma GCC unroll 10
    for (std::size_t j = i + 1; j < kLimbs; ++j) {
      t[i + j] = S::madd_lo(t[i + j], a[i], a[j]);
      t[i + j + 1] = S::madd_hi(t[i + j + 1], a[i], a[j]);
    }
  }
#pragma GCC unroll 10
  for (std::size_t i = 0; i < kLimbs; ++i) {
    t[2 * i] = S::madd_lo(S::add(t[2 * i], t[2 * i]), a[i], a[i]);
    t[2 * i + 1] = S::madd_hi(S::add(t[2 * i + 1], t[2 * i + 1]), a[i], a[i]);
  }
#pragma GCC unroll 10
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const auto q = S::madd_lo(S::zero(), t[i], k0);
#pragma GCC unroll 10
    for (std::size_t j = 0; j < kLimbs; ++j) {
      t[i + j] = S::madd_lo(t[i + j], m[j], q);
      t[i + j + 1] = S::madd_hi(t[i + j + 1], m[j], q);
    }
    // Column i is now a multiple of 2^52: keep only its carry.
    t[i + 1] = S::add(t[i + 1], S::shift_limb(t[i]));
  }
  // Columns 10 to 19 are the result, below 2m < 2^513, as in amm.
#pragma GCC unroll 10
  for (std::size_t j = kLimbs; j + 1 < 2 * kLimbs; ++j) {
    t[j + 1] = S::add(t[j + 1], S::shift_limb(t[j]));
    out[j - kLimbs] = S::low_limb(t[j]);
  }
  out[kLimbs - 1] = t[2 * kLimbs - 1];
}

template <std::size_t L>
GLOBE_IFMA_TARGET void load(const Columns<L>& in, typename Simd<L>::V* out) {
  using V = typename Simd<L>::V;
  for (std::size_t j = 0; j < kLimbs; ++j) out[j] = *reinterpret_cast<const V*>(in[j]);
}

template <std::size_t L>
GLOBE_IFMA_TARGET void store(const typename Simd<L>::V* in, Columns<L>& out) {
  using V = typename Simd<L>::V;
  for (std::size_t j = 0; j < kLimbs; ++j) *reinterpret_cast<V*>(out[j]) = in[j];
}

/// out = each lane's table entry for the window of its exponent that starts
/// at bit `pos`.  Lanes that share one exponent share the entry, whose row
/// is loaded; otherwise each lane's limbs are gathered.
template <std::size_t L>
GLOBE_IFMA_TARGET void select(const Columns<L>* table, const BigInt* const* exps, bool shared,
                              std::size_t pos, typename Simd<L>::V* out) {
  using S = Simd<L>;
  if (shared) return load<L>(table[bits_at(*exps[0], pos, kWindowBits)], out);
  alignas(sizeof(typename S::V)) u64 index[L];
  for (std::size_t l = 0; l < L; ++l) {
    index[l] = bits_at(*exps[l], pos, kWindowBits) * kLimbs * L + l;
  }
  const auto vindex = *reinterpret_cast<const typename S::V*>(index);
  for (std::size_t j = 0; j < kLimbs; ++j) out[j] = S::gather(vindex, &table[0][j][0]);
}

/// One pass of 1 to L lanes on L-lane registers.
template <std::size_t L>
GLOBE_IFMA_TARGET void pass_at_width(const PowLane* lanes, std::size_t count, BigInt* out) {
  using S = Simd<L>;
  using V = typename S::V;
  // The lanes share one exponent and one modulus, as a candidate's
  // Miller–Rabin rounds do, or each has its own.
  bool shared = true;
  for (std::size_t l = 1; l < count && shared; ++l) {
    shared = *lanes[l].exp == *lanes[0].exp && *lanes[l].mod == *lanes[0].mod;
  }

  // Per lane: the modulus and −m⁻¹ mod 2^52; in table[0], R mod m; in
  // table[1], base·R mod m, or a value below 2m congruent to it.  Lanes
  // past `count` repeat lane 0, and their results are dropped.
  // table[d] = base^d·R mod m, each below 2m.
  alignas(sizeof(V)) Columns<L> mod, table[kEntries];
  const BigInt* exps[L];
  std::size_t exp_bits = 0;
  for (std::size_t l = 0; l < L; ++l) {
    exps[l] = lanes[l < count ? l : 0].exp;
    exp_bits = std::max(exp_bits, exps[l]->bit_length());
  }
  V k0;
  if (shared) {
    // One long division for the whole pass, R² mod m, into table[0]; the
    // vector products below turn it into R and each base into base·R.
    const BigInt& m = *lanes[0].mod;
    to_columns<L>(m, mod, 0);
    repeat_column<L>(mod, 0, 1);
    k0 = S::splat(montgomery_k0(m));
    to_columns<L>((BigInt(1) << 2 * kRBits) % m, table[0], 0);
    repeat_column<L>(table[0], 0, 1);
    for (std::size_t l = 0; l < count; ++l) {
      const BigInt& b = *lanes[l].base;
      if (b < m) {
        to_columns<L>(b, table[1], l);
      } else {
        to_columns<L>(b % m, table[1], l);
      }
    }
  } else {
    alignas(sizeof(V)) u64 k0s[L];
    const BigInt r_power = BigInt(1) << kRBits;
    for (std::size_t l = 0; l < count; ++l) {
      const BigInt& m = *lanes[l].mod;
      to_columns<L>(m, mod, l);
      k0s[l] = montgomery_k0(m);
      const BigInt r = r_power % m;
      to_columns<L>(r, table[0], l);
      // Screening's base 2 needs no second division: 2·(R mod m) < 2m.
      to_columns<L>(is_two(*lanes[l].base) ? r << 1 : (*lanes[l].base << kRBits) % m, table[1], l);
    }
    repeat_column<L>(mod, 0, count);
    repeat_column<L>(table[0], 0, count);
    std::fill(k0s + count, k0s + L, k0s[0]);
    k0 = *reinterpret_cast<const V*>(k0s);
  }
  repeat_column<L>(table[1], 0, count);

  V m[kLimbs], acc[kLimbs], t[kLimbs], unit[kLimbs];
  load<L>(mod, m);
  for (std::size_t j = 0; j < kLimbs; ++j) unit[j] = S::zero();
  unit[0] = S::splat(1);
  if (shared) {
    V square[kLimbs];
    load<L>(table[0], square);
    amm<L>(square, unit, m, k0, t);
    store<L>(t, table[0]);
    load<L>(table[1], t);
    amm<L>(t, square, m, k0, t);
    store<L>(t, table[1]);
  }

  // An even entry squares the one at half its index, an odd one multiplies
  // the entry below it by the base.
  load<L>(table[1], t);
  for (std::size_t d = 2; d < kEntries; ++d) {
    if (d % 2 == 0) {
      load<L>(table[d / 2], acc);
      ams<L>(acc, m, k0, acc);
    } else {
      amm<L>(acc, t, m, k0, acc);
    }
    store<L>(acc, table[d]);
  }

  // Fixed windows from the top of the longest exponent; a shorter one's
  // top windows are zero digits, which multiply by R (one).
  const std::size_t windows = (exp_bits + kWindowBits - 1) / kWindowBits;
  if (windows == 0) {
    load<L>(table[0], acc);
  } else {
    select<L>(table, exps, shared, (windows - 1) * kWindowBits, acc);
    for (std::size_t w = windows - 1; w-- > 0;) {
      for (unsigned s = 0; s < kWindowBits; ++s) ams<L>(acc, m, k0, acc);
      select<L>(table, exps, shared, w * kWindowBits, t);
      amm<L>(acc, t, m, k0, acc);
    }
  }

  // Out of Montgomery form: acc·1·R⁻¹ ≤ m, equal to m only when the result
  // is 0 mod m.
  amm<L>(acc, unit, m, k0, acc);
  alignas(sizeof(V)) Columns<L> result;
  store<L>(acc, result);
  for (std::size_t l = 0; l < count; ++l) {
    out[l] = from_column<L>(result, l);
    if (out[l] >= *lanes[l].mod) out[l] = out[l] - *lanes[l].mod;
  }
}

GLOBE_IFMA_TARGET void ifma_pass(const PowLane* lanes, std::size_t count, BigInt* out) {
  check_lanes(lanes, count, kMaxModBits);
  if (count == 0) return;
  if (count <= 4) return pass_at_width<4>(lanes, count, out);
  pass_at_width<8>(lanes, count, out);
}

}  // namespace

namespace detail {

bool cpu_has_ifma() {
  static const bool has = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
    if (!((ecx >> 27) & 1)) return false;  // OSXSAVE: XGETBV is usable
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
    const bool avx512f = (ebx >> 16) & 1, ifma = (ebx >> 21) & 1, vl = (ebx >> 31) & 1;
    if (!avx512f || !ifma || !vl) return false;
    unsigned xcr0 = 0, xcr0_high = 0;
    __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
    // The OS saves SSE, AVX, opmask and both halves of the ZMM registers.
    return (xcr0 & 0xE6) == 0xE6;
  }();
  return has;
}

const LaneKernel kIfmaLanes{"avx512-ifma", kMaxLanes, kMaxModBits, ifma_pass};

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
