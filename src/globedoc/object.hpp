// Owner-side GlobeDoc object and the replicated state snapshot.
//
// The object owner (paper §3) creates the object, holds its private key,
// edits page elements, signs the state into an integrity certificate, and
// pushes ReplicaState snapshots to (untrusted) object servers.
#pragma once

#include <map>
#include <vector>

#include "crypto/rsa.hpp"
#include "globedoc/element.hpp"
#include "globedoc/identity.hpp"
#include "globedoc/integrity.hpp"
#include "globedoc/oid.hpp"
#include "util/rng.hpp"
#include "util/taint_annotations.hpp"

namespace globe::globedoc {

/// Everything a replica stores (paper §3.2.2: "every server that hosts
/// GlobeDoc replicas is required to store all of the object's page elements
/// and the object's integrity certificate").
struct ReplicaState {
  util::Bytes public_key;  // serialized object RsaPublicKey
  IntegrityCertificate certificate;
  std::vector<IdentityCertificate> identity_certs;
  std::vector<PageElement> elements;

  const PageElement* find(const std::string& name) const;
  std::size_t content_bytes() const;

  util::Bytes serialize() const;
  static util::Result<ReplicaState> parse(util::BytesView data);

  /// Self-contained verification of a state received across a trust
  /// boundary (admin push, peer pull): the public key parses and hashes to
  /// the certificate's OID (self-certifying check), the certificate
  /// signature verifies under that key, every element matches its
  /// certificate entry, and no entry's validity window has already closed
  /// at `now`.  Identity certificates are NOT checked here — clients judge
  /// them against their own trust stores (paper §3.1.2).
  GLOBE_SANITIZER [[nodiscard]] util::Status verify(util::SimTime now) const;
};

class GlobeDocObject {
 public:
  explicit GlobeDocObject(crypto::RsaKeyPair keys);

  /// Generates a fresh key pair (the owner does this at object creation;
  /// the OID is born here).
  static GlobeDocObject create(util::RandomSource& rng, std::size_t key_bits = 1024);

  const Oid& oid() const { return oid_; }
  const crypto::RsaPublicKey& public_key() const { return keys_.pub; }

  /// Adds or replaces an element; the state becomes dirty until re-signed.
  /// Trusted sink: whatever lands here will be signed by the owner's key
  /// and served as authentic — unverified bytes (e.g. a raw HTTP import
  /// without a digest manifest check) must not reach it.
  void put_element(GLOBE_TRUSTED_SINK PageElement element);
  void remove_element(const std::string& name);
  const PageElement* element(const std::string& name) const;
  std::size_t element_count() const { return elements_.size(); }

  void add_identity_certificate(IdentityCertificate cert);

  /// Signs the current state: bumps the version and produces a fresh
  /// integrity certificate with per-element validity now+ttl.
  const IntegrityCertificate& sign_state(util::SimTime now, util::SimDuration ttl);

  /// True when elements changed since the last sign_state().
  bool dirty() const { return dirty_; }
  std::uint64_t version() const { return version_; }

  /// Snapshot for replica distribution.  Throws std::logic_error while the
  /// state is dirty (unsigned changes must never reach replicas).
  ReplicaState snapshot() const;

 private:
  crypto::RsaKeyPair keys_;
  Oid oid_;
  std::map<std::string, PageElement> elements_;
  std::vector<IdentityCertificate> identity_certs_;
  IntegrityCertificate certificate_;
  std::uint64_t version_ = 0;
  bool dirty_ = true;  // no certificate yet
};

}  // namespace globe::globedoc
