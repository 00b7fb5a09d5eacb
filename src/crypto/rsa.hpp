// RSA key generation, PKCS#1 v1.5 signatures (SHA-1 / SHA-256 DigestInfo)
// and PKCS#1 v1.5 encryption, built on the BigInt layer.
//
// This is the signature scheme behind GlobeDoc integrity certificates and
// identity certificates (paper §3), and the key-transport primitive of the
// TLS-like baseline channel.
//
// Private-key operations use the CRT, and run both halves, (c mod p)^dp and
// (c mod q)^dq, as one pass of the lane kernel (crypto/mod_pow_lanes.hpp)
// for moduli as wide as p and q: side by side on the AVX-512 IFMA kernel,
// which takes primes of up to 512 bits (RSA-1024), and as two
// BigInt::mod_pow calls on the portable kernel everywhere else.  Every
// kernel gives the same bytes.  A signature leaves rsa_sign_* only after
// s^e = m (mod n) is checked, since a fault in one half would give away a
// factor of n; a failed check throws std::runtime_error.
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/bigint.hpp"
#include "util/bounds_annotations.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/taint_annotations.hpp"

namespace globe::crypto {

/// Hard ceiling on an RSA modulus decoded off the wire: 8192 bits.  parse()
/// rejects anything larger as a protocol error, which caps what a peer's key
/// makes the verifier allocate.  It does not cap the verifier's work: with an
/// 8192-bit modulus, an 8192-bit exponent costs ~360 times what e = 65537
/// does, so the exponent has its own bound, kMaxRsaExponentBits.
inline constexpr std::size_t kMaxRsaModulusBytes = 1024;

/// Widest public exponent parse() accepts (BoringSSL's cap).  Verifying
/// squares once per exponent bit, so the exponent's width is a cost the
/// key's owner picks; every key rsa_generate makes uses e = 65537.
inline constexpr std::size_t kMaxRsaExponentBits = 33;

struct LaneKernel;

struct RsaPublicKey {
  BigInt n;  // modulus
  BigInt e;  // public exponent

  /// Size of the modulus in bytes (= signature/ciphertext size).  Length
  /// guard: parse() rejects moduli beyond kMaxRsaModulusBytes, so for any
  /// wire-decoded key the result is capped by construction.
  GLOBE_LENGTH_GUARD std::size_t modulus_bytes() const {
    return (n.bit_length() + 7) / 8;
  }

  /// Canonical wire encoding: len-prefixed big-endian n, then e.
  util::Bytes serialize() const;
  /// Decodes a key and rejects, as kProtocol, a modulus that is even or
  /// wider than kMaxRsaModulusBytes, and an exponent that is even, below 3
  /// or wider than kMaxRsaExponentBits.
  static util::Result<RsaPublicKey> parse(util::BytesView data);

  friend bool operator==(const RsaPublicKey& a, const RsaPublicKey& b) {
    return a.n == b.n && a.e == b.e;
  }
};

struct RsaPrivateKey {
  BigInt n, e, d;
  BigInt p, q;          // prime factors
  BigInt dp, dq, qinv;  // CRT exponents and coefficient

  RsaPublicKey public_key() const { return RsaPublicKey{n, e}; }

  util::Bytes serialize() const;
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

/// Generates an RSA key with a modulus of `bits` bits (e = 65537).
/// `bits` must be >= 256 (512+ for anything but unit tests).
RsaKeyPair rsa_generate(std::size_t bits, util::RandomSource& rng);

/// PKCS#1 v1.5 signature over SHA-1(msg) — the paper's certificate scheme.
util::Bytes rsa_sign_sha1(const RsaPrivateKey& key, util::BytesView msg);
GLOBE_SANITIZER [[nodiscard]] bool rsa_verify_sha1(const RsaPublicKey& key,
                                                   util::BytesView msg,
                                                   util::BytesView signature);

/// PKCS#1 v1.5 signature over SHA-256(msg) — used by identity certificates
/// and signed naming records.
util::Bytes rsa_sign_sha256(const RsaPrivateKey& key, util::BytesView msg);
GLOBE_SANITIZER [[nodiscard]] bool rsa_verify_sha256(const RsaPublicKey& key,
                                                     util::BytesView msg,
                                                     util::BytesView signature);

/// PKCS#1 v1.5 type-2 encryption.  msg must be <= modulus_bytes() - 11.
util::Result<util::Bytes> rsa_encrypt(const RsaPublicKey& key, util::BytesView msg,
                                      util::RandomSource& rng);
util::Result<util::Bytes> rsa_decrypt(const RsaPrivateKey& key, util::BytesView ct);

namespace detail {

/// The private key of primes p > q and a prime public exponent e, or
/// nullopt when e divides (p − 1)(q − 1) and so has no inverse: what
/// rsa_generate makes of the primes it draws, for tests to check by hand on
/// small primes.
std::optional<RsaPrivateKey> rsa_private_key(const BigInt& p, const BigInt& q, const BigInt& e);

/// rsa_sign_sha256 with both CRT halves on `kernel`, which must take moduli
/// as wide as p and q, for tests to sign under each kernel and under one
/// that fails.
util::Bytes rsa_sign_sha256(const RsaPrivateKey& key, util::BytesView msg,
                            const LaneKernel& kernel);

}  // namespace detail

}  // namespace globe::crypto
