// HMAC-DRBG (NIST SP 800-90A) with SHA-256, plus the process-wide system
// entropy source.  The DRBG gives tests and benchmarks fully deterministic
// key generation from a seed.
//
// K is held as its keyed HMAC state, whose padded blocks are absorbed only
// when K changes, and V as a 32-byte array, so a draw allocates nothing but
// its output.  The stream is the SP 800-90A one, byte for byte.
#pragma once

#include <cstdint>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace globe::crypto {

class HmacDrbg final : public util::RandomSource {
 public:
  /// Instantiates from arbitrary seed material (entropy || nonce ||
  /// personalization, pre-concatenated by the caller).
  explicit HmacDrbg(util::BytesView seed);

  /// Convenience: seed from a 64-bit value (tests, benchmarks).
  static HmacDrbg from_seed(std::uint64_t seed);

  void fill(util::Bytes& out, std::size_t n) override;

  /// Mixes additional entropy into the state.
  void reseed(util::BytesView seed);

 private:
  void update(util::BytesView provided);

  Hmac<Sha256> key_;   // K
  Sha256::Digest v_;   // V
};

/// OS entropy (/dev/urandom).  Throws std::runtime_error if unavailable.
class SystemRandom final : public util::RandomSource {
 public:
  void fill(util::Bytes& out, std::size_t n) override;
};

}  // namespace globe::crypto
