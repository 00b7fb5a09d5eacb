#include "globedoc/object.hpp"

#include <stdexcept>

#include <algorithm>

#include "util/serial.hpp"

namespace globe::globedoc {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Result;

const PageElement* ReplicaState::find(const std::string& name) const {
  for (const auto& el : elements) {
    if (el.name == name) return &el;
  }
  return nullptr;
}

std::size_t ReplicaState::content_bytes() const {
  std::size_t total = 0;
  for (const auto& el : elements) total += el.content.size();
  return total;
}

Bytes ReplicaState::serialize() const {
  util::Writer w;
  w.bytes(public_key);
  w.bytes(certificate.serialize());
  write_identity_list(w, identity_certs);
  w.u32(static_cast<std::uint32_t>(elements.size()));
  for (const auto& el : elements) w.bytes(el.serialize());
  return w.take();
}

Result<ReplicaState> ReplicaState::parse(BytesView data) {
  try {
    util::Reader r(data);
    ReplicaState state;
    state.public_key = r.bytes();
    auto cert = IntegrityCertificate::parse(r.bytes());
    if (!cert.is_ok()) return cert.status();
    state.certificate = std::move(*cert);
    std::uint32_t n_ids = util::checked_count(
        r.u32(), static_cast<std::uint32_t>(kMaxIdentityCerts));
    state.identity_certs.reserve(n_ids);
    for (std::uint32_t i = 0; i < n_ids; ++i) {
      auto id = IdentityCertificate::parse(r.bytes());
      if (!id.is_ok()) return id.status();
      state.identity_certs.push_back(std::move(*id));
    }
    std::uint32_t n_els = util::checked_count(
        r.u32(), static_cast<std::uint32_t>(kMaxCertificateEntries));
    state.elements.reserve(n_els);
    for (std::uint32_t i = 0; i < n_els; ++i) {
      auto el = PageElement::parse(r.bytes());
      if (!el.is_ok()) return el.status();
      state.elements.push_back(std::move(*el));
    }
    r.expect_end();
    return state;
  } catch (const util::SerialError& e) {
    return Result<ReplicaState>(ErrorCode::kProtocol, e.what());
  }
}

util::Status ReplicaState::verify(util::SimTime now) const {
  auto key = crypto::RsaPublicKey::parse(public_key);
  if (!key.is_ok()) return key.status();
  if (!certificate.oid().matches_key(*key)) {
    return util::Status(ErrorCode::kOidMismatch,
                        "state public key does not hash to the certificate OID");
  }
  if (!certificate.verify_signature(*key)) {
    return util::Status(ErrorCode::kBadSignature,
                        "state certificate signature invalid");
  }
  // The paper requires a hosting server to store *all* of the object's page
  // elements (§3.2.2): every entry must be present and fresh, and no element
  // may ride along outside the signed set.
  if (elements.size() != certificate.entries().size()) {
    return util::Status(ErrorCode::kWrongElement,
                        "element set does not match the certificate entries");
  }
  for (const auto& entry : certificate.entries()) {
    const PageElement* el = find(entry.name);
    if (el == nullptr) {
      return util::Status(ErrorCode::kNotFound,
                          "certificate entry '" + entry.name + "' has no element");
    }
    util::Status check = certificate.check_element(entry.name, *el, now);
    if (!check.is_ok()) return check;
  }
  return util::Status::ok();
}

GlobeDocObject::GlobeDocObject(crypto::RsaKeyPair keys)
    : keys_(std::move(keys)), oid_(Oid::from_public_key(keys_.pub)) {}

GlobeDocObject GlobeDocObject::create(util::RandomSource& rng, std::size_t key_bits) {
  return GlobeDocObject(crypto::rsa_generate(key_bits, rng));
}

void GlobeDocObject::put_element(PageElement element) {
  if (element.name.empty()) {
    throw std::invalid_argument("put_element: empty element name");
  }
  elements_[element.name] = std::move(element);
  dirty_ = true;
}

void GlobeDocObject::remove_element(const std::string& name) {
  if (elements_.erase(name) > 0) dirty_ = true;
}

const PageElement* GlobeDocObject::element(const std::string& name) const {
  auto it = elements_.find(name);
  return it == elements_.end() ? nullptr : &it->second;
}

void GlobeDocObject::add_identity_certificate(IdentityCertificate cert) {
  identity_certs_.push_back(std::move(cert));
  dirty_ = true;
}

const IntegrityCertificate& GlobeDocObject::sign_state(util::SimTime now,
                                                       util::SimDuration ttl) {
  std::vector<PageElement> elements;
  elements.reserve(elements_.size());
  for (const auto& [name, el] : elements_) elements.push_back(el);
  certificate_ =
      IntegrityCertificate::build(oid_, ++version_, elements, now, ttl, keys_.priv);
  dirty_ = false;
  return certificate_;
}

ReplicaState GlobeDocObject::snapshot() const {
  if (dirty_) {
    throw std::logic_error("snapshot of unsigned state: call sign_state first");
  }
  ReplicaState state;
  state.public_key = keys_.pub.serialize();
  state.certificate = certificate_;
  state.identity_certs = identity_certs_;
  state.elements.reserve(elements_.size());
  for (const auto& [name, el] : elements_) state.elements.push_back(el);
  return state;
}

}  // namespace globe::globedoc
