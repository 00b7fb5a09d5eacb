// CA-mediated identity certificates (paper §3.1.2).
//
// Self-certifying OIDs bind an object to its key; identity certificates
// bind the OID to a real-world entity ("Vrije Universiteit Amsterdam").
// Users configure the CAs they trust in a TrustStore; the proxy fetches the
// object's identity certificates and displays the naming information of the
// first one issued by a trusted CA ("Certified as:" in Figure 3).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crypto/rsa.hpp"
#include "globedoc/oid.hpp"
#include "util/clock.hpp"
#include "util/serial.hpp"
#include "util/taint_annotations.hpp"

namespace globe::globedoc {

/// Protocol ceiling on identity certificates per replica state.  Decoders
/// reject lists claiming more before allocating for the claimed count.
inline constexpr std::size_t kMaxIdentityCerts = 64;

struct IdentityCertificate {
  std::string subject;   // real-world entity behind the object
  Oid oid;               // object this identity is claimed for
  std::string issuer;    // CA name
  util::SimTime expires = 0;
  util::Bytes signature;  // CA RSA/SHA-256 signature over the body

  util::Bytes signed_body() const;
  util::Bytes serialize() const;
  static util::Result<IdentityCertificate> parse(util::BytesView data);
};

/// Identity-certificate list wire form (kGetIdentityCerts replies and
/// ReplicaState): u32 n, then n length-prefixed certificates.
void write_identity_list(util::Writer& w,
                         const std::vector<IdentityCertificate>& certs);

/// Lenient decode of a served list: unparseable certificates are skipped,
/// and a malformed list or one over kMaxIdentityCerts yields none.  Nothing
/// is verified (readers judge each against a TrustStore), so it is untrusted.
GLOBE_UNTRUSTED std::vector<IdentityCertificate> parse_identity_list(
    util::BytesView data);

/// A certificate authority: issues identity certificates for OIDs.
class CertificateAuthority {
 public:
  CertificateAuthority(std::string name, crypto::RsaKeyPair keys);

  const std::string& name() const { return name_; }
  const crypto::RsaPublicKey& public_key() const { return keys_.pub; }

  IdentityCertificate issue(const std::string& subject, const Oid& oid,
                            util::SimTime expires) const;

 private:
  std::string name_;
  crypto::RsaKeyPair keys_;
};

/// The user's list of trusted CA keys (paper: "users themselves can specify
/// a number of CAs they trust, and store their public keys with their user
/// proxy").
class TrustStore {
 public:
  void trust(const std::string& ca_name, crypto::RsaPublicKey key);
  [[nodiscard]] bool trusts(const std::string& ca_name) const;
  std::size_t size() const { return cas_.size(); }

  /// Full verification of one certificate: trusted issuer, valid signature,
  /// not expired, and issued for `expected_oid`.
  GLOBE_SANITIZER [[nodiscard]] util::Status verify(const IdentityCertificate& cert,
                                                    const Oid& expected_oid,
                                                    util::SimTime now) const;

  /// Scans `certs` and returns the subject of the first certificate that
  /// verifies (the proxy's "Certified as:" string), or nullopt.  The
  /// returned subject is sanitized — it was lifted from a certificate that
  /// passed full verification.
  GLOBE_SANITIZER [[nodiscard]] std::optional<std::string> first_trusted_subject(
      const std::vector<IdentityCertificate>& certs, const Oid& expected_oid,
      util::SimTime now) const;

 private:
  std::map<std::string, crypto::RsaPublicKey> cas_;
};

}  // namespace globe::globedoc
