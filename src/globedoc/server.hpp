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
  /// state is admitted as an admin create or update is: replicas whose lease
  /// lapsed by `now` are evicted first, and the resource limits apply
  /// without counting the copy it replaces; a state they refuse is not
  /// installed, and the result is the admin path's kUnavailable "hosting
  /// refused: ..." status.  A newly hosted OID starts its lease at `now`,
  /// with no creator; over a hosted replica only the content is refreshed,
  /// and its creator and lease stay.
  util::Status install_replica_unchecked(GLOBE_TRUSTED_SINK const ReplicaState& state,
                                         util::SimTime now = 0)
      GLOBE_EXCLUDES(mutex_);

  /// Per-OID (epoch, content digest, certificate expiry horizon) for the
  /// consistency observatory (DESIGN.md §16): epoch is the hosted
  /// integrity certificate's version, the digest a Merkle root over the
  /// serialized elements THIS server actually stores (name order,
  /// recomputed per call so post-install tampering is visible), expiry the
  /// earliest certificate-entry deadline.  The digests are computed after
  /// the lock is released, over the snapshots it copied.  Wire this into a
  /// TelemetryNode via set_consistency_source().
  obs::ConsistencyReport consistency_report() const GLOBE_EXCLUDES(mutex_);

  /// Resource policy (paper §6 extension).  Limits apply to future creates,
  /// updates and pulled installs; existing replicas are untouched until
  /// their lease ends.
  /// A replica whose lease has lapsed is evicted where the server first
  /// sees the lapse: a read or an admin check of it, or the admission of
  /// any create, update or pulled install.
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

  /// The shared front of the three {oid20} handlers: decodes the OID and
  /// returns its snapshot, or kNotFound when it is not hosted.
  util::Result<std::shared_ptr<const ReplicaState>> oid_request(
      net::ServerContext& ctx, GLOBE_UNTRUSTED util::BytesView payload)
      GLOBE_EXCLUDES(mutex_);

  // One hosted replica and the bookkeeping that leaves with it.  The state
  // is an immutable snapshot that an admission replaces whole, so a reply
  // can view its elements after mutex_ is released.
  struct Hosted {
    std::shared_ptr<const ReplicaState> state;
    util::SimTime installed_at = 0;  // freshness probe input
    util::Bytes creator;  // serialized creator key; empty = installed unchecked
    util::SimTime lease_until = 0;  // 0 = unlimited
  };

  /// How every handler reaches hosted state: the snapshot of `oid` if it is
  /// hosted and its lease has not lapsed at `now` (a lapsed replica is
  /// evicted here), copied under mutex_ for the caller to read after.
  std::shared_ptr<const ReplicaState> snapshot(const Oid& oid, util::SimTime now)
      GLOBE_EXCLUDES(mutex_);

  /// The entry of `oid` if it is hosted and its lease has not lapsed at
  /// `now`; a lapsed replica is evicted here.
  const Hosted* live_locked(const Oid& oid, util::SimTime now) GLOBE_REQUIRES(mutex_);

  /// Evicts every replica whose lease lapsed at or before `now`, so a
  /// capacity decision never counts one.
  void evict_lapsed_locked(util::SimTime now) GLOBE_REQUIRES(mutex_);

  /// The resource policy's verdict on hosting `bytes` content bytes in
  /// place of `replaced` (null for a new OID): ok, or the admin path's
  /// kUnavailable "hosting refused: ..." status.
  util::Status check_capacity_locked(std::uint64_t bytes, const Hosted* replaced) const
      GLOBE_REQUIRES(mutex_);

  /// The one way a state enters or replaces an entry of replicas_: evicts
  /// lapsed replicas, checks capacity without counting the entry `state`
  /// replaces, and installs it at `now`.  An admin create or update passes
  /// its `creator`, which becomes the entry's and restarts the lease; a pull
  /// (null `creator`) starts the lease only for an OID not hosted yet, and
  /// otherwise refreshes the content alone.  Callers build the snapshot
  /// before taking mutex_.  Trusted sink: callers on a network path must
  /// have run ReplicaState::verify() first.
  util::Status admit_locked(const Oid& oid,
                            GLOBE_TRUSTED_SINK std::shared_ptr<const ReplicaState> state,
                            util::SimTime now, const util::Bytes* creator)
      GLOBE_REQUIRES(mutex_);

  /// A create, update or delete request: {bytes nonce, bytes pubkey, bytes
  /// signature, rest}, where the signature covers the rest exactly as the
  /// client serialized it.
  struct AdminRequest {
    util::Bytes nonce;
    util::Bytes pubkey;
    util::Bytes signature;
    util::Bytes rest;
  };
  static AdminRequest read_admin_request(GLOBE_UNTRUSTED util::BytesView payload);

  /// Validates the request's (nonce, pubkey, signature) against the
  /// keystore; returns the authorized key's serialized form, or an error.
  /// `tag` domain-separates create/update/delete signatures.
  util::Result<util::Bytes> check_admin_auth(net::ServerContext& ctx,
                                             const AdminRequest& request,
                                             std::string_view tag)
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
