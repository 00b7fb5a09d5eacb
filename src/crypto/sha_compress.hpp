// Internal to src/crypto: the SHA-1 and SHA-256 compression functions, and
// the Merkle–Damgård block buffering both hashes share.
//
// Each hash has a portable compression function and, on x86-64, one written
// with the SHA extensions (SHA-NI).  Sha1 and Sha256 pick one once, from
// CPUID, and run every block through it; there is no option to pick another.
// The header exists so that tests can run both paths on one CPU and compare
// them.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "util/bytes.hpp"

namespace globe::crypto::detail {

/// Folds `blocks` consecutive 64-byte blocks at `data` into `state`.
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks);

void sha1_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks);
void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks);

/// The initial hash values (FIPS 180-4 §5.3).
inline constexpr std::array<std::uint32_t, 5> kSha1Iv = {
    0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
inline constexpr std::array<std::uint32_t, 8> kSha256Iv = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};

/// The SHA-256 round constants (FIPS 180-4 §4.2.2), shared by both paths.
extern const std::uint32_t kSha256K[64];

#if defined(__x86_64__)
/// True when the CPU has the SHA extensions plus the SSSE3 and SSE4.1
/// shuffles the *_shani functions use.  Calling those functions on any
/// other CPU raises an illegal-instruction fault.
bool cpu_has_sha_ni();

void sha1_compress_shani(std::uint32_t* state, const std::uint8_t* data,
                         std::size_t blocks);
void sha256_compress_shani(std::uint32_t* state, const std::uint8_t* data,
                           std::size_t blocks);
#endif

/// "sha-ni" or "portable": the path both hashes take on this CPU.
inline const char* compress_path() {
#if defined(__x86_64__)
  if (cpu_has_sha_ni()) return "sha-ni";
#endif
  return "portable";
}

/// Appends `data` to a hash: tops up the partial block in `buffer`, hands
/// every whole block of `data` to one `compress` call, and keeps the tail.
inline void absorb(CompressFn compress, std::uint32_t* state, std::uint8_t* buffer,
                   std::size_t& buffer_len, util::BytesView data) {
  constexpr std::size_t kBlock = 64;
  if (data.empty()) return;  // an empty view may hold a null pointer
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffer_len > 0) {
    std::size_t take = std::min(kBlock - buffer_len, n);
    std::memcpy(buffer + buffer_len, p, take);
    buffer_len += take;
    p += take;
    n -= take;
    if (buffer_len < kBlock) return;
    compress(state, buffer, 1);
    buffer_len = 0;
  }
  if (n >= kBlock) {
    compress(state, p, n / kBlock);
    p += n / kBlock * kBlock;
    n %= kBlock;
  }
  if (n > 0) std::memcpy(buffer, p, n);
  buffer_len = n;
}

/// Pads a hash of `total_len` message bytes (0x80, zeros, the 64-bit
/// big-endian bit length) and compresses the last one or two blocks.
inline void pad(CompressFn compress, std::uint32_t* state, std::uint8_t* buffer,
                std::size_t buffer_len, std::uint64_t total_len) {
  constexpr std::size_t kBlock = 64;
  buffer[buffer_len++] = 0x80;
  if (buffer_len > kBlock - 8) {
    std::memset(buffer + buffer_len, 0, kBlock - buffer_len);
    compress(state, buffer, 1);
    buffer_len = 0;
  }
  std::memset(buffer + buffer_len, 0, kBlock - 8 - buffer_len);
  const std::uint64_t bits = total_len * 8;
  for (int i = 0; i < 8; ++i) {
    buffer[kBlock - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
  compress(state, buffer, 1);
}

/// Writes the state words out big-endian: the digest.
template <std::size_t Words>
void store_digest(const std::array<std::uint32_t, Words>& state, std::uint8_t* out) {
  for (std::uint32_t word : state) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      *out++ = static_cast<std::uint8_t>(word >> shift);
    }
  }
}

}  // namespace globe::crypto::detail
