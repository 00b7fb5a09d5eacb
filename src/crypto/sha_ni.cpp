// SHA-1 and SHA-256 compression with the x86 SHA extensions (SHA-NI).
//
// Only these functions carry the SHA, SSSE3 and SSE4.1 target, so the rest
// of the library runs on any x86-64 CPU; sha1.cpp and sha256.cpp call them
// only when cpu_has_sha_ni() says the CPU has all three.  Other targets
// compile none of this file and run the portable rounds.
#include "crypto/sha_compress.hpp"

#if defined(__x86_64__)

#include <cpuid.h>
#include <immintrin.h>

#define GLOBE_SHA_NI_TARGET __attribute__((target("sha,sse4.1,ssse3")))

namespace globe::crypto::detail {

bool cpu_has_sha_ni() {
  static const bool has = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
    const bool ssse3 = (ecx >> 9) & 1, sse41 = (ecx >> 19) & 1;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
    return ssse3 && sse41 && ((ebx >> 29) & 1);
  }();
  return has;
}

namespace {

GLOBE_SHA_NI_TARGET inline __m128i load_be(const std::uint8_t* p, __m128i order) {
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), order);
}

// --- SHA-1 --------------------------------------------------------------
// ABCD sits in one register with A in the top lane.  Each sha1rnds4 runs
// four rounds; its E input is the message group plus E, and sha1nexte
// derives that E (rotl(A, 30) of the state four rounds earlier).

// Four rounds of function F on message group `msg`; `prev` holds the state
// from before the previous four rounds and becomes this group's start.
template <int F>
GLOBE_SHA_NI_TARGET inline void sha1_quad(__m128i& abcd, __m128i& prev, __m128i msg) {
  __m128i e = _mm_sha1nexte_epu32(prev, msg);
  prev = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e, F);
}

// Replaces m4 with the group after m1 and runs its four rounds:
// W[t] = rotl(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16], 1).
template <int F>
GLOBE_SHA_NI_TARGET inline void sha1_next_quad(__m128i& abcd, __m128i& prev,
                                               __m128i& m4, __m128i m3, __m128i m2,
                                               __m128i m1) {
  m4 = _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32(m4, m3), m2), m1);
  sha1_quad<F>(abcd, prev, m4);
}

}  // namespace

GLOBE_SHA_NI_TARGET void sha1_compress_shani(std::uint32_t* state,
                                             const std::uint8_t* data,
                                             std::size_t blocks) {
  const __m128i order = _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abcd_in = abcd, e_in = e0;
    __m128i m0 = load_be(data, order), m1 = load_be(data + 16, order);
    __m128i m2 = load_be(data + 32, order), m3 = load_be(data + 48, order);
    __m128i prev = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, _mm_add_epi32(e0, m0), 0);  // rounds 0-3
    sha1_quad<0>(abcd, prev, m1);
    sha1_quad<0>(abcd, prev, m2);
    sha1_quad<0>(abcd, prev, m3);
    sha1_next_quad<0>(abcd, prev, m0, m1, m2, m3);  // 16-19
    sha1_next_quad<1>(abcd, prev, m1, m2, m3, m0);  // 20-23
    sha1_next_quad<1>(abcd, prev, m2, m3, m0, m1);
    sha1_next_quad<1>(abcd, prev, m3, m0, m1, m2);
    sha1_next_quad<1>(abcd, prev, m0, m1, m2, m3);
    sha1_next_quad<1>(abcd, prev, m1, m2, m3, m0);
    sha1_next_quad<2>(abcd, prev, m2, m3, m0, m1);  // 40-43
    sha1_next_quad<2>(abcd, prev, m3, m0, m1, m2);
    sha1_next_quad<2>(abcd, prev, m0, m1, m2, m3);
    sha1_next_quad<2>(abcd, prev, m1, m2, m3, m0);
    sha1_next_quad<2>(abcd, prev, m2, m3, m0, m1);
    sha1_next_quad<3>(abcd, prev, m3, m0, m1, m2);  // 60-63
    sha1_next_quad<3>(abcd, prev, m0, m1, m2, m3);
    sha1_next_quad<3>(abcd, prev, m1, m2, m3, m0);
    sha1_next_quad<3>(abcd, prev, m2, m3, m0, m1);
    sha1_next_quad<3>(abcd, prev, m3, m0, m1, m2);
    e0 = _mm_sha1nexte_epu32(prev, e_in);
    abcd = _mm_add_epi32(abcd, abcd_in);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

// --- SHA-256 ------------------------------------------------------------
// The state sits in two registers, ABEF and CDGH.  Each sha256rnds2 runs two
// rounds on the low two words of its message-plus-constant input.

namespace {

// Four rounds on message group `msg` with the round constants at `k`.
GLOBE_SHA_NI_TARGET inline void sha256_quad(__m128i& abef, __m128i& cdgh, __m128i msg,
                                            const std::uint32_t* k) {
  __m128i wk = _mm_add_epi32(msg, _mm_loadu_si128(reinterpret_cast<const __m128i*>(k)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// Replaces m4 with the group after m1 and runs its four rounds:
// W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16].
GLOBE_SHA_NI_TARGET inline void sha256_next_quad(__m128i& abef, __m128i& cdgh,
                                                 __m128i& m4, __m128i m3, __m128i m2,
                                                 __m128i m1, const std::uint32_t* k) {
  m4 = _mm_sha256msg2_epu32(
      _mm_add_epi32(_mm_sha256msg1_epu32(m4, m3), _mm_alignr_epi8(m1, m2, 4)), m1);
  sha256_quad(abef, cdgh, m4, k);
}

}  // namespace

GLOBE_SHA_NI_TARGET void sha256_compress_shani(std::uint32_t* state,
                                               const std::uint8_t* data,
                                               std::size_t blocks) {
  const __m128i order = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    __m128i m0 = load_be(data, order), m1 = load_be(data + 16, order);
    __m128i m2 = load_be(data + 32, order), m3 = load_be(data + 48, order);
    sha256_quad(abef, cdgh, m0, kSha256K);
    sha256_quad(abef, cdgh, m1, kSha256K + 4);
    sha256_quad(abef, cdgh, m2, kSha256K + 8);
    sha256_quad(abef, cdgh, m3, kSha256K + 12);
    for (const std::uint32_t* k = kSha256K + 16; k < kSha256K + 64; k += 16) {
      sha256_next_quad(abef, cdgh, m0, m1, m2, m3, k);
      sha256_next_quad(abef, cdgh, m1, m2, m3, m0, k + 4);
      sha256_next_quad(abef, cdgh, m2, m3, m0, m1, k + 8);
      sha256_next_quad(abef, cdgh, m3, m0, m1, m2, k + 12);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

}  // namespace globe::crypto::detail

#endif  // __x86_64__
