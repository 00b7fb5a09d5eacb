#include "crypto/rsa.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "crypto/mod_pow_lanes.hpp"
#include "crypto/prime.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha256.hpp"
#include "obs/profile.hpp"
#include "util/serial.hpp"

namespace globe::crypto {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Result;

namespace {

// ASN.1 DigestInfo prefixes (RFC 8017 §9.2 note 1).
constexpr std::uint8_t kSha1Prefix[] = {0x30, 0x21, 0x30, 0x09, 0x06,
                                        0x05, 0x2b, 0x0e, 0x03, 0x02,
                                        0x1a, 0x05, 0x00, 0x04, 0x14};
constexpr std::uint8_t kSha256Prefix[] = {0x30, 0x31, 0x30, 0x0d, 0x06, 0x09,
                                          0x60, 0x86, 0x48, 0x01, 0x65, 0x03,
                                          0x04, 0x02, 0x01, 0x05, 0x00, 0x04,
                                          0x20};

// EMSA-PKCS1-v1_5 encoding: 0x00 0x01 FF..FF 0x00 || DigestInfo || digest.
Bytes emsa_encode(BytesView digest_info_prefix, BytesView digest, std::size_t em_len) {
  std::size_t t_len = digest_info_prefix.size() + digest.size();
  if (em_len < t_len + 11) throw std::invalid_argument("RSA modulus too small for digest");
  Bytes em;
  em.reserve(em_len);
  em.push_back(0x00);
  em.push_back(0x01);
  em.insert(em.end(), em_len - t_len - 3, 0xff);
  em.push_back(0x00);
  util::append(em, digest_info_prefix);
  util::append(em, digest);
  return em;
}

// The kernel a key's private-key operations run on: the lane kernel for
// moduli as wide as its primes.
const LaneKernel& crt_kernel(const RsaPrivateKey& key) {
  return mod_pow_lanes(std::max(key.p.bit_length(), key.q.bit_length()));
}

// Raw private-key exponentiation via the CRT: both halves, (c mod p)^dp and
// (c mod q)^dq, in one pass of `kernel`, side by side on a kernel that runs
// lanes in parallel and one after the other on the portable one.
BigInt rsa_private_op(const RsaPrivateKey& key, const BigInt& c, const LaneKernel& kernel) {
  const BigInt cp = c % key.p, cq = c % key.q;
  const PowLane lanes[2] = {{&cp, &key.dp, &key.p}, {&cq, &key.dq, &key.q}};
  BigInt m[2];
  kernel.pass(lanes, 2, m);
  // h = qinv * (m1 - m2) mod p, guarding against m1 < m2.
  BigInt diff = (m[0] + key.p - (m[1] % key.p)) % key.p;
  BigInt h = (key.qinv * diff) % key.p;
  return m[1] + h * key.q;
}

// A signature is released only once s^e = m (mod n) holds: a fault in one CRT
// half gives anyone who sees s a factor of n, gcd(s^e - m, n) (Boneh, DeMillo
// and Lipton, 1997).  The check costs one public-exponent exponentiation.
Bytes sign_encoded(const RsaPrivateKey& key, BytesView prefix, BytesView digest,
                   const LaneKernel& kernel) {
  std::size_t k = (key.n.bit_length() + 7) / 8;
  Bytes em = emsa_encode(prefix, digest, k);
  BigInt m = BigInt::from_bytes(em);
  BigInt s = rsa_private_op(key, m, kernel);
  if (BigInt::mod_pow(s, key.e, key.n) != m) {
    throw std::runtime_error(
        "rsa_sign: the CRT result fails s^e = m (mod n); no signature released");
  }
  return s.to_bytes(k);
}

bool verify_encoded(const RsaPublicKey& key, BytesView prefix, BytesView digest,
                    BytesView signature) {
  std::size_t k = key.modulus_bytes();
  if (signature.size() != k) return false;
  BigInt s = BigInt::from_bytes(signature);
  if (s >= key.n) return false;
  BigInt m = BigInt::mod_pow(s, key.e, key.n);
  Bytes em = m.to_bytes(k);
  Bytes expected = emsa_encode(prefix, digest, k);
  return util::ct_equal(em, expected);
}

}  // namespace

Bytes RsaPublicKey::serialize() const {
  util::Writer w;
  w.bytes(n.to_bytes());
  w.bytes(e.to_bytes());
  return w.take();
}

Result<RsaPublicKey> RsaPublicKey::parse(BytesView data) {
  try {
    util::Reader r(data);
    RsaPublicKey key;
    Bytes n_bytes = r.bytes();
    Bytes e_bytes = r.bytes();
    r.expect_end();
    if (n_bytes.size() > kMaxRsaModulusBytes ||
        e_bytes.size() > kMaxRsaModulusBytes) {
      return Result<RsaPublicKey>(
          ErrorCode::kProtocol,
          "RSA key component exceeds " +
              std::to_string(kMaxRsaModulusBytes * 8) + " bits");
    }
    key.n = BigInt::from_bytes(n_bytes);
    key.e = BigInt::from_bytes(e_bytes);
    if (key.n.is_even()) {
      return Result<RsaPublicKey>(ErrorCode::kProtocol, "RSA modulus is even");
    }
    if (key.e.is_even() || key.e < BigInt(3) ||
        key.e.bit_length() > kMaxRsaExponentBits) {
      return Result<RsaPublicKey>(
          ErrorCode::kProtocol,
          "RSA exponent must be odd, at least 3 and at most " +
              std::to_string(kMaxRsaExponentBits) + " bits");
    }
    return key;
  } catch (const util::SerialError& e) {
    return Result<RsaPublicKey>(ErrorCode::kProtocol, e.what());
  }
}

Bytes RsaPrivateKey::serialize() const {
  util::Writer w;
  for (const BigInt* v : {&n, &e, &d, &p, &q, &dp, &dq, &qinv}) {
    w.bytes(v->to_bytes());
  }
  return w.take();
}

RsaKeyPair rsa_generate(std::size_t bits, util::RandomSource& rng) {
  if (bits < 256) throw std::invalid_argument("rsa_generate: modulus too small");
  const BigInt e(65537);
  for (;;) {
    BigInt p = generate_prime(bits / 2, rng);
    BigInt q = generate_prime(bits - bits / 2, rng);
    if (p == q) continue;
    if (p < q) std::swap(p, q);  // CRT convention: p > q
    if ((p * q).bit_length() != bits) continue;
    std::optional<RsaPrivateKey> priv = detail::rsa_private_key(p, q, e);
    if (!priv) continue;
    return RsaKeyPair{priv->public_key(), std::move(*priv)};
  }
}

Bytes rsa_sign_sha1(const RsaPrivateKey& key, BytesView msg) {
  GLOBE_PROFILE_SCOPE("rsa_sign");
  auto digest = Sha1::digest(msg);
  return sign_encoded(key, BytesView(kSha1Prefix, sizeof(kSha1Prefix)),
                      BytesView(digest.data(), digest.size()), crt_kernel(key));
}

bool rsa_verify_sha1(const RsaPublicKey& key, BytesView msg, BytesView signature) {
  GLOBE_PROFILE_SCOPE("rsa_verify");
  auto digest = Sha1::digest(msg);
  return verify_encoded(key, BytesView(kSha1Prefix, sizeof(kSha1Prefix)),
                        BytesView(digest.data(), digest.size()), signature);
}

Bytes rsa_sign_sha256(const RsaPrivateKey& key, BytesView msg) {
  GLOBE_PROFILE_SCOPE("rsa_sign");
  return detail::rsa_sign_sha256(key, msg, crt_kernel(key));
}

bool rsa_verify_sha256(const RsaPublicKey& key, BytesView msg, BytesView signature) {
  GLOBE_PROFILE_SCOPE("rsa_verify");
  auto digest = Sha256::digest(msg);
  return verify_encoded(key, BytesView(kSha256Prefix, sizeof(kSha256Prefix)),
                        BytesView(digest.data(), digest.size()), signature);
}

Result<Bytes> rsa_encrypt(const RsaPublicKey& key, BytesView msg,
                          util::RandomSource& rng) {
  GLOBE_PROFILE_SCOPE("rsa_encrypt");
  std::size_t k = key.modulus_bytes();
  if (k < 11 || msg.size() > k - 11) {
    return Result<Bytes>(ErrorCode::kInvalidArgument, "rsa_encrypt: message too long");
  }
  // EME-PKCS1-v1_5: 0x00 0x02 PS(nonzero) 0x00 M.
  Bytes em;
  em.reserve(k);
  em.push_back(0x00);
  em.push_back(0x02);
  std::size_t ps_len = k - msg.size() - 3;
  while (em.size() < 2 + ps_len) {
    Bytes r = rng.bytes(ps_len);
    for (std::uint8_t b : r) {
      if (b != 0 && em.size() < 2 + ps_len) em.push_back(b);
    }
  }
  em.push_back(0x00);
  util::append(em, msg);
  BigInt m = BigInt::from_bytes(em);
  BigInt c = BigInt::mod_pow(m, key.e, key.n);
  return c.to_bytes(k);
}

Result<Bytes> rsa_decrypt(const RsaPrivateKey& key, BytesView ct) {
  GLOBE_PROFILE_SCOPE("rsa_decrypt");
  std::size_t k = (key.n.bit_length() + 7) / 8;
  if (ct.size() != k) {
    return Result<Bytes>(ErrorCode::kInvalidArgument, "rsa_decrypt: bad ciphertext size");
  }
  BigInt c = BigInt::from_bytes(ct);
  if (c >= key.n) {
    return Result<Bytes>(ErrorCode::kInvalidArgument, "rsa_decrypt: ciphertext >= n");
  }
  BigInt m = rsa_private_op(key, c, crt_kernel(key));
  Bytes em = m.to_bytes(k);
  if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02) {
    return Result<Bytes>(ErrorCode::kProtocol, "rsa_decrypt: bad padding");
  }
  std::size_t sep = 2;
  while (sep < em.size() && em[sep] != 0x00) ++sep;
  if (sep == em.size() || sep < 10) {
    return Result<Bytes>(ErrorCode::kProtocol, "rsa_decrypt: bad padding");
  }
  return Bytes(em.begin() + static_cast<std::ptrdiff_t>(sep + 1), em.end());
}

namespace detail {

std::optional<RsaPrivateKey> rsa_private_key(const BigInt& p, const BigInt& q, const BigInt& e) {
  const BigInt p1 = p - BigInt(1), q1 = q - BigInt(1);
  const BigInt phi = p1 * q1;
  // e is prime, so it is coprime to φ unless it divides φ.
  const BigInt phi_mod_e = phi % e;
  if (phi_mod_e.is_zero()) return std::nullopt;
  // d = e⁻¹ mod φ from e's smallness: with k = −φ⁻¹ mod e, 1 + k·φ is a
  // multiple of e, and d = (1 + k·φ) / e is below φ as k is below e.
  const BigInt k = e - BigInt::mod_inverse(phi_mod_e, e);
  RsaPrivateKey priv;
  priv.n = p * q;
  priv.e = e;
  priv.d = (BigInt(1) + k * phi) / e;
  priv.p = p;
  priv.q = q;
  priv.dp = priv.d % p1;
  priv.dq = priv.d % q1;
  priv.qinv = BigInt::mod_inverse(q, p);
  return priv;
}

Bytes rsa_sign_sha256(const RsaPrivateKey& key, BytesView msg, const LaneKernel& kernel) {
  auto digest = Sha256::digest(msg);
  return sign_encoded(key, BytesView(kSha256Prefix, sizeof(kSha256Prefix)),
                      BytesView(digest.data(), digest.size()), kernel);
}

}  // namespace detail

}  // namespace globe::crypto
