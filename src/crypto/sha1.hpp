// SHA-1 (FIPS 180-1) — the hash the paper uses for self-certifying OIDs and
// integrity-certificate element digests.  Incremental (update/final) and
// one-shot APIs.
//
// Blocks are compressed with the CPU's SHA extensions where CPUID reports
// them (x86-64 with SHA-NI, SSSE3 and SSE4.1), and with portable rounds
// everywhere else; the choice is made once per process and yields the same
// digests.  update() hands each run of whole blocks to one compression call.
// Simulated time never reads this speed: the era CpuModel charges hashing.
//
// SHA-1 is retained for fidelity to the paper; new protocol surfaces in this
// codebase (DRBG, identity certificates) use SHA-256 from sha256.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>

#include "util/bytes.hpp"

namespace globe::crypto {

class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha1() { reset(); }

  void reset();
  void update(util::BytesView data);
  /// Finalizes and returns the digest; the object must be reset() before reuse.
  Digest finish();

  /// One-shot convenience.
  static Digest digest(util::BytesView data);
  static util::Bytes digest_bytes(util::BytesView data);
  /// One-shot over the concatenation of `parts`, hashed where they lie.
  static Digest digest_parts(std::initializer_list<util::BytesView> parts);

 private:
  std::array<std::uint32_t, 5> h_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace globe::crypto
