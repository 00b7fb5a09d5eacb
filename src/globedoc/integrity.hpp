// Integrity certificates (paper §3.2.2, Figure 2).
//
// A digital certificate signed with the object's private key holding one
// entry per page element: the element's name, its SHA-1 hash, and a
// validity interval.  Clients fetching elements from *untrusted* replicas
// use it to enforce:
//   * authenticity — signature verifies under the object key AND the
//     element's hash matches its entry;
//   * freshness    — the retrieval time falls inside the validity interval;
//   * consistency  — the entry checked is the one for the element the
//     client actually asked for.
// Each failure maps to a distinct ErrorCode so callers (and tests) can tell
// the attacks apart.
#pragma once

#include <string>
#include <vector>

#include "crypto/rsa.hpp"
#include "globedoc/element.hpp"
#include "globedoc/oid.hpp"
#include "util/clock.hpp"
#include "util/taint_annotations.hpp"

namespace globe::globedoc {

/// Protocol ceiling on page elements per object (and so on entries per
/// integrity certificate).  parse() rejects certificates claiming more as a
/// protocol error before allocating anything for them.
inline constexpr std::size_t kMaxCertificateEntries = 1024;

struct ElementEntry {
  std::string name;
  util::Bytes sha1;            // 20-byte digest of the serialized element
  util::SimTime expires = 0;   // end of the validity interval
};

class IntegrityCertificate {
 public:
  IntegrityCertificate() = default;

  /// Builds and signs a certificate over `elements`, each valid until
  /// now + ttl (per-element freshness constraints are supported by editing
  /// entries() before signing via Builder below — see ObjectOwner).
  static IntegrityCertificate build(const Oid& oid, std::uint64_t version,
                                    const std::vector<PageElement>& elements,
                                    util::SimTime now, util::SimDuration ttl,
                                    const crypto::RsaPrivateKey& key);

  const Oid& oid() const { return oid_; }
  std::uint64_t version() const { return version_; }
  const std::vector<ElementEntry>& entries() const { return entries_; }

  [[nodiscard]] const ElementEntry* find(const std::string& name) const;

  /// Verifies the signature under the object's public key.  Sanitizes the
  /// certificate itself: a certificate that passed is trusted content.
  GLOBE_SANITIZER [[nodiscard]] bool verify_signature(
      const crypto::RsaPublicKey& key) const;

  /// The three checks of §3.2.2 for one retrieved element:
  ///   NOT_FOUND     — no entry for `requested_name`;
  ///   WRONG_ELEMENT — the served element is not the one requested;
  ///   HASH_MISMATCH — body differs from the signed digest;
  ///   EXPIRED       — entry validity interval passed.
  /// Signature verification is separate (verify_signature) because it is
  /// done once per binding, not once per element.
  GLOBE_SANITIZER [[nodiscard]] util::Status check_element(
      const std::string& requested_name, const PageElement& served,
      util::SimTime now) const;

  /// Wire encoding: signed body + signature.
  util::Bytes serialize() const;
  static util::Result<IntegrityCertificate> parse(util::BytesView data);

  /// Serialized size in bytes (the "about 2KB of extra information" the
  /// paper measures in the small-transfer overhead).
  std::size_t wire_size() const { return body_.size() + signature_.size() + 8; }

 private:
  util::Bytes body_;  // canonical signed bytes
  util::Bytes signature_;
  // Decoded view of body_:
  Oid oid_;
  std::uint64_t version_ = 0;
  std::vector<ElementEntry> entries_;
};

}  // namespace globe::globedoc
