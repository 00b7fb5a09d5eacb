// Globe object server (paper §2.1.3, §4).
//
// Hosts GlobeDoc replicas and exposes three interfaces on one endpoint:
//   * access   — page-element retrieval (untrusted path, no authentication:
//                clients verify what they get);
//   * security — public key / integrity certificate / identity certificates
//                (paper §3.1.2's "special security interface");
//   * admin    — replica creation/update/destruction, protected by a
//                keystore ACL: the administrator lists the public keys of
//                entities allowed to create replicas (owners or other
//                object servers, enabling dynamic replication), and each
//                entity may manage only the replicas it created.  Requests
//                are authenticated by signing a fresh server nonce
//                (challenge/response), standing in for the paper's
//                client-authenticated TLS admin channel.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "crypto/drbg.hpp"
#include "globedoc/object.hpp"
#include "net/transport.hpp"
#include "obs/consistency.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "rpc/rpc.hpp"
#include "util/bounds_annotations.hpp"
#include "util/lru_cache.hpp"
#include "util/mutex.hpp"
#include "util/taint_annotations.hpp"

namespace globe::obs {
class AdminHttpServer;  // obs/admin.hpp
}

namespace globe::globedoc {

enum AccessMethod : std::uint16_t {
  kGetElement = 1,  // {oid20, str name} -> serialized PageElement
  // 2 is retired (it was ListElements, which no client called).
  // Batched retrieval: FetchManyRequest -> FetchManyResponse (up to
  // kFetchManyMaxElements elements + the shared integrity certificate in
  // ONE round trip; see globedoc/fetch_many.hpp).
  kFetchMany = 3,
};

enum SecurityMethod : std::uint16_t {
  kGetPublicKey = 1,      // {oid20} -> serialized RsaPublicKey
  kGetIntegrityCert = 2,  // {oid20} -> serialized IntegrityCertificate
  kGetIdentityCerts = 3,  // {oid20} -> u32 n, n × bytes
};

enum AdminMethod : std::uint16_t {
  kChallenge = 1,      // {} -> bytes nonce
  kCreateReplica = 2,  // {nonce, pubkey, sig, state}
  kUpdateReplica = 3,  // {nonce, pubkey, sig, state}
  kDeleteReplica = 4,  // {nonce, pubkey, sig, oid20}
  // 5 and 6 are retired (they were ListReplicas and Negotiate, which no
  // client called); neither id is reused.
};

/// Resource limitations a server administrator imposes on hosted replicas
/// (the resource-managed hosting extension sketched in the paper's §6).
struct ResourceLimits {
  std::size_t max_replicas = 0;        // 0 = unlimited
  std::uint64_t max_total_bytes = 0;   // 0 = unlimited (content bytes)
  std::uint64_t max_replica_bytes = 0; // 0 = unlimited (per replica)
  util::SimDuration max_lease = 0;     // 0 = unlimited hosting duration
};

/// The resource policy's verdict on one replica: whether the server hosts
/// it, and for how long.
struct HostingGrant {
  bool accepted = false;
  util::SimDuration lease = 0;  // granted duration (0 = unlimited)
  std::string reason;           // populated on rejection
};

class ObjectServer {
 public:
  /// `registry` receives the object_server.* series (labeled with this
  /// server's name); nullptr means the process-wide obs::global_registry().
  /// `profile` receives the cost probes fired while this server handles an
  /// RPC (DESIGN.md §15); nullptr means obs::global_profile_registry().
  ObjectServer(std::string name, std::uint64_t nonce_seed,
               obs::MetricsRegistry* registry = nullptr,
               obs::ProfileRegistry* profile = nullptr);

  /// Keystore ACL management (server administrator's side).
  void authorize(const crypto::RsaPublicKey& key) GLOBE_EXCLUDES(mutex_);

  void register_with(rpc::ServiceDispatcher& dispatcher);

  /// Installs a replica bypassing admin *auth* (local bootstrap in tests
  /// and the pull path, both of which hold an already-verified state).
  /// Trusted sink: the state is hosted and served as-is, so it must have
  /// passed ReplicaState::verify() when it crossed a trust boundary.
  /// `now` stamps the install time for the freshness probe; callers off the
  /// network path (test bootstrap at t=0) may leave it defaulted.  The
  /// resource limits still apply, as to a create or an update of a hosted
  /// replica: a state they refuse is not installed, and the result is the
  /// admin path's kUnavailable "hosting refused: ..." status.  Replicas
  /// whose lease lapsed by `now` are evicted first, as for a create.
  util::Status install_replica_unchecked(GLOBE_TRUSTED_SINK const ReplicaState& state,
                                         util::SimTime now = 0)
      GLOBE_EXCLUDES(mutex_);

  /// Per-OID (epoch, content digest, certificate expiry horizon) for the
  /// consistency observatory (DESIGN.md §16): epoch is the hosted
  /// integrity certificate's version, the digest a Merkle root over the
  /// serialized elements THIS server actually stores (name order,
  /// recomputed per call so post-install tampering is visible), expiry the
  /// earliest certificate-entry deadline.  Wire this into a TelemetryNode
  /// via set_consistency_source().
  obs::ConsistencyReport consistency_report() const GLOBE_EXCLUDES(mutex_);

  /// Resource policy (paper §6 extension).  Limits apply to future creates,
  /// updates and pulled installs; existing replicas are untouched until
  /// their lease ends.
  /// A replica whose lease has lapsed is evicted where the server first
  /// sees the lapse: a read of it, or any create, update or pulled install.
  void set_resource_limits(const ResourceLimits& limits) GLOBE_EXCLUDES(mutex_);

  /// Registers the "replication-freshness" probe: unhealthy once the newest
  /// replica state on this server was installed more than `budget` before
  /// the probing context's now() — the operator's bound on how long an
  /// object server may serve without absorbing any refresh.  A server
  /// hosting nothing is vacuously healthy.
  void register_freshness_probe(obs::AdminHttpServer& admin,
                                util::SimDuration budget);

 private:
  // RPC handler payloads arrive straight off the wire from arbitrary callers
  // and are tainted at entry (GLOBE_UNTRUSTED in parameter position).
  util::Result<net::Reply> handle_get_element(net::ServerContext&,
                                              GLOBE_UNTRUSTED util::BytesView);
  util::Result<util::Bytes> handle_fetch_many(net::ServerContext&,
                                              GLOBE_UNTRUSTED util::BytesView);
  util::Result<util::Bytes> handle_get_public_key(net::ServerContext&,
                                                  GLOBE_UNTRUSTED util::BytesView);
  util::Result<util::Bytes> handle_get_integrity_cert(net::ServerContext&,
                                                      GLOBE_UNTRUSTED util::BytesView);
  util::Result<util::Bytes> handle_get_identity_certs(net::ServerContext&,
                                                      GLOBE_UNTRUSTED util::BytesView);
  util::Result<util::Bytes> handle_challenge(net::ServerContext&,
                                             GLOBE_UNTRUSTED util::BytesView);
  util::Result<util::Bytes> handle_create_or_update(net::ServerContext&,
                                                    GLOBE_UNTRUSTED util::BytesView,
                                                    bool create);
  util::Result<util::Bytes> handle_delete(net::ServerContext&,
                                          GLOBE_UNTRUSTED util::BytesView);

  /// Checks the resource policy for a replica of `bytes` content bytes
  /// (excluding `existing_oid`'s current usage when updating).  Returns an
  /// accepted grant or a rejection with a reason.  Caller holds mutex_.
  HostingGrant check_capacity_locked(std::uint64_t bytes,
                                     const Oid* existing_oid) const
      GLOBE_REQUIRES(mutex_);

  // One hosted replica and the bookkeeping that leaves with it.  The state
  // is an immutable snapshot that a create or an update replaces whole, so a
  // reply can view its elements after mutex_ is released.
  struct Hosted {
    std::shared_ptr<const ReplicaState> state;
    util::SimTime installed_at = 0;  // freshness probe input
    util::Bytes creator;  // serialized creator key; empty = installed unchecked
    util::SimTime lease_until = 0;  // 0 = unlimited
  };

  /// The state of `oid` if it is hosted and its lease has not lapsed at
  /// `now`; a lapsed replica is evicted here.
  std::shared_ptr<const ReplicaState> live_locked(const Oid& oid, util::SimTime now)
      GLOBE_REQUIRES(mutex_);

  /// Evicts every replica whose lease lapsed at or before `now`, so a
  /// capacity decision never counts one.
  void evict_lapsed_locked(util::SimTime now) GLOBE_REQUIRES(mutex_);

  /// The one place replica state enters the hosted set.  Trusted sink:
  /// callers on a network path must have run ReplicaState::verify() first.
  Hosted& install_locked(const Oid& oid, GLOBE_TRUSTED_SINK ReplicaState state,
                         util::SimTime now)
      GLOBE_REQUIRES(mutex_);

  /// Validates (nonce, pubkey, signature) against the keystore; returns the
  /// authorized key's serialized form, or an error.  `tag` domain-separates
  /// create/update/delete signatures.
  util::Result<util::Bytes> check_admin_auth(net::ServerContext& ctx,
                                             const util::Bytes& nonce,
                                             const util::Bytes& pubkey,
                                             const util::Bytes& signature,
                                             std::string_view tag,
                                             util::BytesView payload)
      GLOBE_EXCLUDES(mutex_);

  std::string name_;
  mutable util::Mutex mutex_;
  crypto::HmacDrbg nonce_rng_ GLOBE_GUARDED_BY(mutex_);
  // authorized serialized public keys
  std::set<util::Bytes> keystore_ GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex_);
  // Challenges issued and not yet answered; single use, oldest evicted first.
  util::LruCache<util::Bytes, bool> outstanding_nonces_ GLOBE_GUARDED_BY(mutex_);
  std::map<Oid, Hosted> replicas_ GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex_);
  ResourceLimits limits_ GLOBE_GUARDED_BY(mutex_);
  // Registry series, labeled by this server's name.
  obs::Counter* requests_counter_;
  obs::Counter* batch_requests_counter_;
  obs::Counter* elements_counter_;
  obs::Counter* bytes_counter_;
  obs::Counter* replica_installs_;
  obs::Counter* replica_deletes_;
  // Cost-probe destination for RPC handling on this server's behalf;
  // null = the process-wide global profile registry.
  obs::ProfileRegistry* profile_;
};

/// Client helper for the authenticated admin interface.
class AdminClient {
 public:
  AdminClient(net::Transport& transport, net::Endpoint server,
              crypto::RsaKeyPair credentials);

  util::Status create_replica(const ReplicaState& state);
  util::Status update_replica(const ReplicaState& state);
  util::Status delete_replica(const Oid& oid);

 private:
  util::Result<util::Bytes> fresh_nonce();
  util::Status authed_call(std::uint16_t method, std::string_view tag,
                           util::BytesView payload);

  net::Transport* transport_;
  net::Endpoint server_;
  crypto::RsaKeyPair credentials_;
};

}  // namespace globe::globedoc
