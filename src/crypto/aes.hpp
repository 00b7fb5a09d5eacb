// AES-128/192/256 block cipher (FIPS 197) and CTR-mode keystream.  CTR
// mode only ever runs the forward cipher, so there is no inverse cipher.
//
// Used by the TLS-like secure channel that serves as the paper's "Apache +
// SSL" baseline.  Table-based implementation; not hardened against cache
// timing (acceptable: the adversary model in the paper is a malicious
// *server*, not a local side-channel observer).
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace globe::crypto {

class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;
  using Block = std::array<std::uint8_t, kBlockSize>;

  /// Key must be 16, 24 or 32 bytes; throws std::invalid_argument otherwise.
  explicit Aes(util::BytesView key);

  void encrypt_block(const Block& in, Block& out) const;

 private:
  std::array<std::uint32_t, 60> round_keys_{};
  int rounds_ = 0;
};

/// AES-CTR keystream cipher.  Encryption and decryption are the same
/// operation; the counter block is (nonce[12] || be32 counter).
class AesCtr {
 public:
  /// nonce must be 12 bytes.
  AesCtr(util::BytesView key, util::BytesView nonce);

  /// XORs the keystream into `data` in place, continuing from the current
  /// stream position.
  void process(util::Bytes& data);
  util::Bytes process_copy(util::BytesView data);

 private:
  void refill();

  Aes aes_;
  Aes::Block counter_{};
  Aes::Block keystream_{};
  std::size_t keystream_used_ = Aes::kBlockSize;
};

}  // namespace globe::crypto
