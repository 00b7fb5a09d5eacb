// Fleet consistency observatory (DESIGN.md §16): per-document epochs and
// the report a node sends about them.
//
// Every hosted document has a *state epoch* — the version stamped into its
// integrity certificate by the master's signing key, bumped on every
// re-sign — and a *content digest* — the Merkle root over the serialized
// elements the replica actually stores, recomputed at report time so a
// byte flipped after installation is visible, not just a stale pull.  A
// TelemetryNode with a consistency source appends its server's per-OID
// (epoch, digest, expiry horizon) triples to every scrape reply, after the
// metrics snapshot, so the report rides the same RPC, trace and node
// identity check as the scrape itself.
//
// The TelemetryAggregator (obs/telemetry.hpp) audits what its round
// collected: the master target's report is the authority, and each
// (replica target, OID) pair is classified
//   * fresh      epoch matches the master AND the digest matches;
//   * stale      epoch behind the master but the certificate window is
//                still open — the replica serves verifiably-signed old
//                state, which the paper's model explicitly permits;
//   * expired    epoch behind AND the certificate window has closed;
//   * diverged   digest mismatch at an equal-or-ahead epoch — corruption
//                or tampering, never a mere propagation delay;
//   * missing    the master serves the document, the replica does not;
//   * unreachable the replica answered nothing usable this round.
//
// Security note: reports cross the wire from possibly-malicious replicas.
// decode_consistency() is the sanitizing gate — strict lengths, hard doc
// cap, kProtocol on any violation; a malformed report rejects the sender's
// whole scrape reply (stale node, unreachable replica, one
// telemetry.scrape_errors), never poisoning the fleet view.  A *well-formed
// lie* (epoch ahead of the master's) is classified diverged and counted in
// replication.audit.forged: a replica can deny its own telemetry but
// cannot claim to be fresher than the signing authority.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/serial.hpp"
#include "util/status.hpp"
#include "util/taint_annotations.hpp"

namespace globe::obs {

/// Wire caps for a consistency report: one version byte, then at most
/// kMaxReportDocs fixed-size document records.
inline constexpr std::uint8_t kConsistencyVersion = 1;
inline constexpr std::size_t kMaxReportDocs = 4096;
inline constexpr std::size_t kConsistencyDigestSize = 20;  // SHA-1 Merkle root

/// One hosted document's consistency coordinates as reported by a node.
struct DocConsistency {
  util::Bytes oid;     // exactly 20 raw bytes (self-certifying OID)
  std::uint64_t epoch = 0;  // integrity-certificate version at install time
  util::Bytes digest;  // exactly kConsistencyDigestSize bytes: Merkle root
                       // over the stored serialized elements, name order
  util::SimTime earliest_expiry = 0;  // first certificate-entry expiry
};

/// Everything one node reports about the documents it hosts.
struct ConsistencyReport {
  std::vector<DocConsistency> docs;
};

void encode_consistency(util::Writer& w, const ConsistencyReport& report);
/// Sanitizer: the only path wire bytes take into a ConsistencyReport.
/// Rejects truncation, unknown versions, oversized doc counts and
/// wrong-length OID/digest fields with kProtocol.
GLOBE_SANITIZER util::Result<ConsistencyReport> decode_consistency(
    GLOBE_UNTRUSTED util::BytesView data);

enum class ReplicaConsistency {
  kFresh,
  kStale,
  kDiverged,
  kExpired,
  kMissing,
  kUnreachable,
};
const char* replica_consistency_name(ReplicaConsistency state);

/// One row of the /replicaz table: a (replica, OID) pair as of the latest
/// scrape round.  Every field is derived by the aggregator from sanitized
/// reports — safe to render verbatim on the admin plane.
struct ReplicaRow {
  std::string replica;       // replica target's node label
  std::string oid_hex;       // hex rendering of the 20-byte OID
  std::uint64_t epoch = 0;          // replica's reported epoch
  std::uint64_t master_epoch = 0;   // authoritative epoch at the master
  double staleness_ms = 0;          // time the master has been ahead
  double expiry_horizon_s = 0;      // replica cert window remaining (<=0: shut)
  ReplicaConsistency state = ReplicaConsistency::kUnreachable;
};

}  // namespace globe::obs
