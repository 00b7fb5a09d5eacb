#include "replication/refresher.hpp"

#include <algorithm>

#include "globedoc/fetch_many.hpp"
#include "globedoc/verify.hpp"
#include "obs/trace.hpp"
#include "rpc/rpc.hpp"

namespace globe::replication {

using globedoc::IntegrityCertificate;
using globedoc::Oid;
using globedoc::ReplicaState;
using util::ErrorCode;
using util::Result;

Result<PullResult> pull_replica(net::Transport& transport,
                                const net::Endpoint& source, const Oid& oid,
                                globedoc::ObjectServer& local,
                                std::uint64_t local_version) {
  rpc::RpcClient peer(transport, source);

  // A refused check is security-relevant (the peer served something that
  // failed verification) — record it joinable to the enclosing trace.
  auto fail = [&](util::Status status) -> Result<PullResult> {
    if (util::is_verification_failure(status.code())) {
      obs::emit_event(obs::EventLevel::kWarn, "replication", "pull_rejected",
                      source.to_string() + ": " + status.to_string());
    }
    return status;
  };

  // --- Public key and integrity certificate: the client's checks
  // (globedoc/verify.hpp), then version and freshness.
  auto object_key = globedoc::fetch_object_key(peer, oid);
  if (!object_key.is_ok()) return fail(object_key.status());
  auto cert_raw = peer.call(rpc::kGlobeDocSecurity, globedoc::kGetIntegrityCert,
                            oid.to_bytes());
  if (!cert_raw.is_ok()) return cert_raw.status();
  auto certificate = IntegrityCertificate::parse(*cert_raw);
  if (!certificate.is_ok()) return certificate.status();
  util::Status verified =
      globedoc::verify_certificate(transport, *certificate, *object_key, oid);
  if (!verified.is_ok()) return fail(verified);
  if (certificate->version() <= local_version) {
    return Result<PullResult>(ErrorCode::kInvalidArgument,
                              "peer state is not newer than local version " +
                                  std::to_string(local_version));
  }
  // Refuse to propagate already-stale state: every entry must still be live.
  for (const auto& entry : certificate->entries()) {
    if (entry.expires <= transport.now()) {
      return fail(util::Status(ErrorCode::kExpired,
                               "peer state already expired: " + entry.name));
    }
  }

  // --- Elements: fetch and verify each against its certificate entry.
  ReplicaState state;
  // Store the canonical serialization of the *verified* key, not the peer's
  // raw reply: if parse() ever tolerated non-canonical encodings (trailing
  // bytes, redundant length prefixes), the raw bytes would be served onward
  // to clients while only the parsed form was checked against the OID.
  state.public_key = object_key->serialize();
  state.certificate = *certificate;
  const auto& entries = certificate->entries();
  state.elements.reserve(entries.size());
  // Batched pull: one element/fetch_many round trip per kFetchManyMaxElements
  // entries instead of one RPC per element — the wire win the edge-cache
  // tier's fill path shares (DESIGN.md §12).  Verification is unchanged:
  // every element is still checked individually against its certificate
  // entry, so a tampered item in a batch rejects the whole pull.
  for (std::size_t base = 0; base < entries.size();
       base += globedoc::kFetchManyMaxElements) {
    globedoc::FetchManyRequest batch_req;
    batch_req.oid = oid;
    batch_req.include_cert = false;  // already fetched and verified above
    const std::size_t end =
        std::min(entries.size(), base + globedoc::kFetchManyMaxElements);
    for (std::size_t i = base; i < end; ++i) {
      batch_req.names.push_back(entries[i].name);
    }
    auto batch = globedoc::fetch_many(transport, source, batch_req);
    if (!batch.is_ok()) return batch.status();
    for (std::size_t i = base; i < end; ++i) {
      auto& item = batch->items[i - base];
      if (!item.found) {
        return fail(util::Status(ErrorCode::kNotFound,
                                 "peer has no element " + entries[i].name));
      }
      auto element = globedoc::verify_element(transport, *certificate,
                                              entries[i].name, std::move(item.element));
      if (!element.is_ok()) return fail(element.status());
      state.elements.push_back(std::move(*element));
    }
  }

  // --- Identity certificates travel along unverified (clients check them
  // against their own trust stores; a peer cannot forge ones that matter).
  auto ids_raw = peer.call(rpc::kGlobeDocSecurity, globedoc::kGetIdentityCerts,
                           oid.to_bytes());
  if (ids_raw.is_ok()) {
    state.identity_certs = globedoc::parse_identity_list(*ids_raw);
  }

  PullResult result;
  result.version = state.certificate.version();
  result.elements = state.elements.size();
  result.content_bytes = state.content_bytes();
  for (const auto& entry : state.certificate.entries()) {
    result.earliest_expiry = result.earliest_expiry == 0
                                 ? entry.expires
                                 : std::min(result.earliest_expiry, entry.expires);
  }
  result.installed = true;
  util::Status hosted = local.install_replica_unchecked(state, transport.now());
  if (!hosted.is_ok()) return hosted;
  obs::emit_event(obs::EventLevel::kInfo, "replication", "pull_installed",
                  oid.to_hex() + " v" + std::to_string(result.version) +
                      " from " + source.to_string());
  return result;
}

}  // namespace globe::replication
