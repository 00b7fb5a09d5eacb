#include "globedoc/verify.hpp"

#include "globedoc/server.hpp"

namespace globe::globedoc {

using util::ErrorCode;
using util::Status;

util::Result<crypto::RsaPublicKey> fetch_object_key(
    const rpc::RpcClient& replica, const Oid& oid) {
  auto key_raw =
      replica.call(rpc::kGlobeDocSecurity, kGetPublicKey, oid.to_bytes());
  if (!key_raw.is_ok()) return key_raw.status();
  auto key = crypto::RsaPublicKey::parse(*key_raw);
  if (!key.is_ok()) return key.status();
  replica.transport().charge(net::CpuOp::kSha1, key_raw->size());
  if (!oid.matches_key(*key)) {
    return Status(ErrorCode::kOidMismatch, "public key does not hash to the OID at " +
                                               replica.endpoint().to_string());
  }
  return key;
}

Status verify_certificate(net::Transport& transport,
                          const IntegrityCertificate& certificate,
                          const crypto::RsaPublicKey& key, const Oid& oid) {
  transport.charge(net::CpuOp::kRsaVerify, 1);
  if (!certificate.verify_signature(key)) {
    return Status(ErrorCode::kBadSignature,
                  "integrity certificate signature invalid");
  }
  if (certificate.oid() != oid) {
    return Status(ErrorCode::kWrongElement,
                  "integrity certificate for a different object");
  }
  return Status::ok();
}

util::Result<PageElement> verify_element(net::Transport& transport,
                                         const IntegrityCertificate& certificate,
                                         const std::string& name,
                                         util::Bytes served) {
  const std::size_t served_bytes = served.size();
  auto element = PageElement::parse(std::move(served));
  if (!element.is_ok()) return element.status();
  transport.charge(net::CpuOp::kSha1, served_bytes);
  Status check = certificate.check_element(name, *element, transport.now());
  if (!check.is_ok()) return check;
  return element;
}

}  // namespace globe::globedoc
