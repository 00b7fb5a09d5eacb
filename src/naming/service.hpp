// Zone authorities and name servers (paper §2.1.1, §3.1).
//
// A ZoneAuthority holds a zone's signing key and its records; a NamingServer
// exposes one or more zones over RPC.  Queries return either a signed
// answer (OID record) or a signed referral (delegation to a child zone's
// server).  The resolver in resolver.hpp walks referrals from a configured
// trust anchor, exactly like a validating DNSsec resolver.
//
// Authenticated denial of existence (NSEC) is out of scope, as it was for
// the paper: a missing name yields an unsigned NOT_FOUND, which an attacker
// could forge into (at worst) denial of service — consistent with the
// paper's threat analysis of the lookup services.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "util/bounds_annotations.hpp"
#include "util/mutex.hpp"

#include "crypto/rsa.hpp"
#include "naming/records.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "rpc/rpc.hpp"
#include "util/taint_annotations.hpp"

namespace globe::naming {

/// RPC method ids under rpc::kNamingService.
enum NamingMethod : std::uint16_t {
  kLookup = 1,       // request: str zone, str name -> NamingReply
  kZonePublicKey = 2,  // request: str zone -> bytes (serialized RsaPublicKey)
};

/// Reply to kLookup.
struct NamingReply {
  enum class Kind : std::uint8_t { kAnswer = 1, kReferral = 2 };
  Kind kind = Kind::kAnswer;
  SignedBlob blob;  // OidRecord (answer) or DelegationRecord (referral)

  util::Bytes serialize() const;
  static util::Result<NamingReply> parse(util::BytesView data);
};

/// The administrative side of one zone: key custody, record signing.
class ZoneAuthority {
 public:
  ZoneAuthority(std::string zone_name, crypto::RsaKeyPair keys);

  const std::string& zone() const { return zone_name_; }
  const crypto::RsaPublicKey& public_key() const { return keys_.pub; }

  /// Publishes (or refreshes) name -> OID valid until `expires`.  `name`
  /// must fall inside this zone.
  void add_oid(const std::string& name, util::BytesView oid, util::SimTime expires);
  void remove_name(const std::string& name);

  /// Delegates a child suffix to another zone key + name server.
  void delegate(const std::string& child_zone, const crypto::RsaPublicKey& child_key,
                const net::Endpoint& child_server, util::SimTime expires);

  /// Longest-match lookup inside this zone.
  [[nodiscard]] util::Result<NamingReply> lookup(const std::string& name) const
      GLOBE_EXCLUDES(mutex_);

 private:
  std::string zone_name_;
  crypto::RsaKeyPair keys_;
  mutable util::Mutex mutex_;
  // full name -> signed record / child suffix -> signed delegation
  std::map<std::string, SignedBlob> oid_records_ GLOBE_GUARDED_BY(mutex_);
  std::map<std::string, SignedBlob> delegations_ GLOBE_GUARDED_BY(mutex_);
};

/// Serves one or more zones on an RPC dispatcher.
class NamingServer {
 public:
  /// `registry` receives the naming.server.* series (lookups by outcome,
  /// zone-key requests); nullptr means the process-wide
  /// obs::global_registry().
  explicit NamingServer(obs::MetricsRegistry* registry = nullptr);

  void add_zone(std::shared_ptr<ZoneAuthority> zone);

  /// Registers kLookup/kZonePublicKey on `dispatcher`.
  void register_with(rpc::ServiceDispatcher& dispatcher);

 private:
  // Wire payloads from arbitrary callers: tainted at entry.  Replies are
  // signed with the zone key, so nothing untrusted flows into an answer.
  util::Result<util::Bytes> handle_lookup(net::ServerContext& ctx,
                                          GLOBE_UNTRUSTED util::BytesView payload);
  util::Result<util::Bytes> handle_zone_key(net::ServerContext& ctx,
                                            GLOBE_UNTRUSTED util::BytesView payload);

  util::Mutex mutex_;
  std::map<std::string, std::shared_ptr<ZoneAuthority>> zones_ GLOBE_BOUNDED
      GLOBE_GUARDED_BY(mutex_);
  obs::Counter* lookups_answer_;
  obs::Counter* lookups_referral_;
  obs::Counter* lookups_miss_;
  obs::Counter* zone_key_requests_;
};

}  // namespace globe::naming
