// Peer-to-peer replica synchronization.
//
// The paper notes GlobeDoc is "ideally suited to the creation of
// (peer-to-peer) content delivery networks" (§2): because a replica's
// state is *self-certifying* — the public key hashes to the OID, the
// integrity certificate is signed by the object key, every element hashes
// to its certificate entry — an object server can pull state from ANY
// other replica, verify it exactly like a client would, and install it
// without trusting the source or involving the owner.  A tampering source
// simply fails verification; a stale source is refused by version; the
// worst outcome is "no update", never corruption.
#pragma once

#include "globedoc/object.hpp"
#include "globedoc/server.hpp"
#include "net/transport.hpp"
#include "util/thread_annotations.hpp"

namespace globe::replication {

struct PullResult {
  std::uint64_t version = 0;        // version of the installed state
  std::size_t elements = 0;
  std::size_t content_bytes = 0;
  /// Earliest certificate-entry expiry of the installed state (the moment
  /// the replica starts being rejected by clients); 0 for empty objects.
  util::SimTime earliest_expiry = 0;
  bool installed = false;           // false when already up to date
};

/// Fetches the complete state of `oid` from the (untrusted) replica at
/// `source`, verifies every part of it, and installs it into `local` when
/// it is newer than what `local` already hosts (pass the currently hosted
/// version in `local_version`; 0 = none).  The checks are the client's
/// (globedoc/verify.hpp), so the typed failures are too:
///   OID_MISMATCH   — source served a key that does not hash to the OID
///   BAD_SIGNATURE  — certificate signature invalid
///   WRONG_ELEMENT  — certificate of another object, or a swapped element
///   HASH_MISMATCH  — some element does not match its certificate entry
///   EXPIRED        — the fetched certificate is already stale
///   NOT_FOUND      — the source lacks an element its certificate lists
///   INVALID_ARGUMENT — source state is not newer than local_version
///   UNAVAILABLE    — `local`'s resource limits refuse the state ("hosting
///                    refused: ..."); the hosted version stays
GLOBE_BLOCKING util::Result<PullResult> pull_replica(net::Transport& transport,
                                      const net::Endpoint& source,
                                      const globedoc::Oid& oid,
                                      globedoc::ObjectServer& local,
                                      std::uint64_t local_version);

}  // namespace globe::replication
