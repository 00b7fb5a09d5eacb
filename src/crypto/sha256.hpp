// SHA-256 (FIPS 180-2).  Used by HMAC-DRBG, the TLS-like secure channel's
// key derivation, and identity-certificate signatures.
//
// Like Sha1, blocks go through the CPU's SHA extensions where CPUID reports
// them and through portable rounds everywhere else, chosen once per process;
// update() hands each run of whole blocks to one compression call.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace globe::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256() { reset(); }

  void reset();
  void update(util::BytesView data);
  Digest finish();

  static Digest digest(util::BytesView data);
  static util::Bytes digest_bytes(util::BytesView data);

 private:
  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace globe::crypto
