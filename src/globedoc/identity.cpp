#include "globedoc/identity.hpp"

#include "util/serial.hpp"

namespace globe::globedoc {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Result;
using util::Status;

Bytes IdentityCertificate::signed_body() const {
  util::Writer w;
  w.str(subject);
  w.raw(oid.to_bytes());
  w.str(issuer);
  w.u64(expires);
  return w.take();
}

Bytes IdentityCertificate::serialize() const {
  util::Writer w;
  w.bytes(signed_body());
  w.bytes(signature);
  return w.take();
}

Result<IdentityCertificate> IdentityCertificate::parse(BytesView data) {
  try {
    util::Reader r(data);
    Bytes body = r.bytes();
    Bytes sig = r.bytes();
    r.expect_end();

    util::Reader rb(body);
    IdentityCertificate cert;
    cert.subject = rb.str();
    auto oid = Oid::from_bytes(rb.raw(Oid::kSize));
    if (!oid.is_ok()) return oid.status();
    cert.oid = *oid;
    cert.issuer = rb.str();
    cert.expires = rb.u64();
    rb.expect_end();
    cert.signature = std::move(sig);
    return cert;
  } catch (const util::SerialError& e) {
    return Result<IdentityCertificate>(ErrorCode::kProtocol, e.what());
  }
}

void write_identity_list(util::Writer& w,
                         const std::vector<IdentityCertificate>& certs) {
  w.u32(static_cast<std::uint32_t>(certs.size()));
  for (const auto& cert : certs) w.bytes(cert.serialize());
}

std::vector<IdentityCertificate> parse_identity_list(BytesView data) {
  std::vector<IdentityCertificate> certs;
  try {
    util::Reader r(data);
    std::uint32_t n = util::checked_count(
        r.u32(), static_cast<std::uint32_t>(kMaxIdentityCerts));
    for (std::uint32_t i = 0; i < n; ++i) {
      auto cert = IdentityCertificate::parse(r.bytes());
      if (cert.is_ok()) certs.push_back(std::move(*cert));
    }
  } catch (const util::SerialError&) {
    certs.clear();
  }
  return certs;
}

CertificateAuthority::CertificateAuthority(std::string name, crypto::RsaKeyPair keys)
    : name_(std::move(name)), keys_(std::move(keys)) {}

IdentityCertificate CertificateAuthority::issue(const std::string& subject,
                                                const Oid& oid,
                                                util::SimTime expires) const {
  IdentityCertificate cert;
  cert.subject = subject;
  cert.oid = oid;
  cert.issuer = name_;
  cert.expires = expires;
  cert.signature = crypto::rsa_sign_sha256(keys_.priv, cert.signed_body());
  return cert;
}

void TrustStore::trust(const std::string& ca_name, crypto::RsaPublicKey key) {
  cas_[ca_name] = std::move(key);
}

bool TrustStore::trusts(const std::string& ca_name) const {
  return cas_.count(ca_name) > 0;
}

Status TrustStore::verify(const IdentityCertificate& cert, const Oid& expected_oid,
                          util::SimTime now) const {
  auto it = cas_.find(cert.issuer);
  if (it == cas_.end()) {
    return Status(ErrorCode::kUntrustedIssuer,
                  "issuer '" + cert.issuer + "' not in trust store");
  }
  if (!crypto::rsa_verify_sha256(it->second, cert.signed_body(), cert.signature)) {
    return Status(ErrorCode::kBadSignature, "identity certificate signature invalid");
  }
  if (cert.oid != expected_oid) {
    return Status(ErrorCode::kWrongElement,
                  "identity certificate issued for a different object");
  }
  if (now >= cert.expires) {
    return Status(ErrorCode::kExpired, "identity certificate expired");
  }
  return Status::ok();
}

std::optional<std::string> TrustStore::first_trusted_subject(
    const std::vector<IdentityCertificate>& certs, const Oid& expected_oid,
    util::SimTime now) const {
  for (const auto& cert : certs) {
    if (verify(cert, expected_oid, now).is_ok()) return cert.subject;
  }
  return std::nullopt;
}

}  // namespace globe::globedoc
