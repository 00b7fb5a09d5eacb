// Audited dynamic content — the future-work direction of paper §6.
//
// Static elements are signed by the owner, but dynamic data cannot be: "it
// would require the object owner to sign the results for every possible
// client query, which is clearly not feasible."  The paper points at the
// Gemini approach [12]: make the *untrusted server* sign what it serves,
// so a cache serving bogus content "is eventually caught red-handed",
// combined with probabilistic double-checking against the origin.
//
// This module implements exactly that:
//   * A DynamicReplicaServer evaluates deterministic generators for an
//     object's dynamic templates and signs every response with its own
//     server key -> a non-repudiable RECEIPT.
//   * A DynamicAuditor (client side) verifies receipts and, with
//     configurable probability, replays the query against the trusted
//     origin.  A mismatch yields a self-contained MisbehaviorProof that
//     anyone holding the server's public key can verify offline.
// A cheating replica is thus detected with probability ~p per lie and can
// be publicly expelled; an honest replica is never incriminated.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crypto/rsa.hpp"
#include "globedoc/oid.hpp"
#include "net/transport.hpp"
#include "rpc/rpc.hpp"
#include "util/bounds_annotations.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/taint_annotations.hpp"

namespace globe::globedoc {

/// Deterministic content generator: query string -> response bytes.
/// Determinism is what makes after-the-fact auditing sound; generators
/// needing changing inputs should fold them into the query.
using Generator = std::function<util::Bytes(const std::string& query)>;

/// RPC method ids under rpc::kGlobeDocDynamic.
enum DynamicMethod : std::uint16_t {
  kDynQuery = 1,  // {oid20, str template, str query} -> {bytes resp, bytes receipt}
};

/// A signed statement by a replica server: "at time T, for query Q on
/// template P of object O, I served content hashing to H."
struct DynamicReceipt {
  Oid oid;
  std::string template_name;
  std::string query;
  util::Bytes response_sha1;  // SHA-1 of the served response
  util::SimTime served_at = 0;
  std::string server_name;    // which replica signed
  util::Bytes signature;      // RSA/SHA-256 by the replica's server key

  util::Bytes signed_body() const;
  util::Bytes serialize() const;
  static util::Result<DynamicReceipt> parse(util::BytesView data);

  /// Signature + response binding check.
  GLOBE_SANITIZER [[nodiscard]] bool verify(const crypto::RsaPublicKey& server_key,
                                            util::BytesView response) const;
};

/// Hosts dynamic templates and signs everything it serves.
class DynamicReplicaServer {
 public:
  DynamicReplicaServer(std::string name, crypto::RsaKeyPair server_key);

  const crypto::RsaPublicKey& server_key() const { return key_.pub; }
  const std::string& name() const { return name_; }

  /// Installs a generator for (oid, template).
  void host(const Oid& oid, const std::string& template_name, Generator generator)
      GLOBE_EXCLUDES(mutex_);

  void register_with(rpc::ServiceDispatcher& dispatcher);

  /// Test hook: corrupts every served response *after* receipt signing is
  /// decided — i.e. the server lies and signs the lie (the case auditing
  /// must catch).
  void set_cheat(std::function<util::Bytes(util::Bytes)> corruptor)
      GLOBE_EXCLUDES(mutex_);

 private:
  util::Result<util::Bytes> handle_query(net::ServerContext& ctx,
                                         GLOBE_UNTRUSTED util::BytesView payload);

  std::string name_;
  crypto::RsaKeyPair key_;
  mutable util::Mutex mutex_;
  std::map<std::pair<Oid, std::string>, Generator> generators_ GLOBE_BOUNDED
      GLOBE_GUARDED_BY(mutex_);
  std::function<util::Bytes(util::Bytes)> cheat_ GLOBE_GUARDED_BY(mutex_);
};

/// A verifiable accusation: the receipt (server-signed) plus what the
/// trusted origin actually returns for the same query.
struct MisbehaviorProof {
  DynamicReceipt receipt;
  util::Bytes origin_response;

  /// Valid iff the receipt signature verifies under `server_key` AND the
  /// origin response hashes differently from what the server attested.
  GLOBE_SANITIZER [[nodiscard]] bool verify(const crypto::RsaPublicKey& server_key) const;
};

/// Client-side: queries a replica, verifies receipts, and probabilistically
/// double-checks against the origin (the owner's trusted server).
class DynamicAuditor {
 public:
  struct Config {
    net::Endpoint replica;
    net::Endpoint origin;                 // trusted (owner-run) endpoint
    crypto::RsaPublicKey replica_server_key;
    double audit_probability = 0.1;
    std::uint64_t seed = 1;
  };

  DynamicAuditor(net::Transport& transport, Config config);

  /// Fetches dynamic content from the replica.  The response is returned
  /// even when an audit later proves it bogus — detection is after the
  /// fact, exactly as in the Gemini model.  BAD_SIGNATURE when the receipt
  /// itself doesn't verify (rejected immediately).
  util::Result<util::Bytes> query(const Oid& oid, const std::string& template_name,
                                  const std::string& query);

  const std::vector<MisbehaviorProof>& proofs() const { return proofs_; }
  std::size_t audits_performed() const { return audits_; }

 private:
  static util::Result<std::pair<util::Bytes, DynamicReceipt>> parse_reply(
      util::BytesView raw);

  net::Transport* transport_;
  Config config_;
  util::SplitMix64 rng_;
  std::vector<MisbehaviorProof> proofs_;
  std::size_t audits_ = 0;
};

}  // namespace globe::globedoc
