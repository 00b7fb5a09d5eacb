// The client-side checks on what a replica serves (paper §3.1.2, §3.2.2),
// one function each, each making its own CPU charge, in Fig. 3's order:
//   step 3  fetch_object_key    key RPC, SHA-1 over the key bytes, OID check
//   step 5  verify_certificate  one RSA verify, signature, certificate OID
//   step 6  verify_element      parse, SHA-1 over the bytes, check_element
// Every path that takes replica bytes runs these and no copy of them: the
// proxy's bind and direct fetch, the edge tier's fills and delayed pulls,
// and peer pulls.  So a fault gives the same typed code on every path.  They
// are not GLOBE_SANITIZERs: the taint pass derives their clean results from
// the sanitizers they call, so a check deleted here shows at every consumer.
#pragma once

#include <string>

#include "globedoc/integrity.hpp"
#include "rpc/rpc.hpp"

namespace globe::globedoc {

/// Step 3: asks `replica` for the object key of `oid`; OID_MISMATCH when the
/// key does not hash to the OID.  RPC and decode errors pass through.
GLOBE_BLOCKING util::Result<crypto::RsaPublicKey> fetch_object_key(
    const rpc::RpcClient& replica, const Oid& oid);

/// Step 5: BAD_SIGNATURE unless `certificate` verifies under `key`, then
/// WRONG_ELEMENT unless it certifies `oid`.
[[nodiscard]] util::Status verify_certificate(
    net::Transport& transport, const IntegrityCertificate& certificate,
    const crypto::RsaPublicKey& key, const Oid& oid);

/// Step 6: parses the bytes a replica served for `name` and runs
/// check_element under `certificate` at the transport's now().  The
/// element's content keeps `served`'s buffer, so a caller that moves the
/// reply in copies no content.
[[nodiscard]] util::Result<PageElement> verify_element(
    net::Transport& transport, const IntegrityCertificate& certificate,
    const std::string& name, util::Bytes served);

}  // namespace globe::globedoc
