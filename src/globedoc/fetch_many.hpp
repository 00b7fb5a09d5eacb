// Batched element retrieval (access method kFetchMany, DESIGN.md §12).
//
// One round trip returns up to kFetchManyMaxElements page elements of a
// single object, optionally together with the object's integrity
// certificate — the "multiple entries per HTTP request" idea: the
// per-element verification model means a batch needs no extra trust, every
// element is still checked individually against its certificate entry.
// Consumers: the edge-cache tier's fills and delayed pulls (src/cache/) and
// peer pulls (replication/refresher.cpp).
//
// Wire formats (util/serial.hpp conventions):
//   request:  oid20, u8 include_cert, u32 n, n × str name
//   response: u8 has_cert, [bytes certificate], u32 n,
//             n × (u8 found, [bytes element])
// The response echoes exactly one item per requested name, in request
// order; elements and certificate travel as opaque length-prefixed blobs,
// and each consumer runs every element through globedoc::verify_element
// (globedoc/verify.hpp) — the transport-level decode here proves nothing
// about authenticity.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "globedoc/oid.hpp"
#include "net/transport.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"
#include "util/taint_annotations.hpp"
#include "util/thread_annotations.hpp"

namespace globe::globedoc {

/// Upper bound on elements per fetch_many round trip (K).  Requests above
/// it are a protocol error; callers chunk.
inline constexpr std::size_t kFetchManyMaxElements = 64;

struct FetchManyRequest {
  Oid oid;
  bool include_cert = false;       // also return the integrity certificate
  std::vector<std::string> names;  // up to kFetchManyMaxElements

  util::Bytes serialize() const;
  /// Server-side decode of a wire payload from an arbitrary caller.
  static util::Result<FetchManyRequest> parse(GLOBE_UNTRUSTED util::BytesView data);
};

struct FetchManyResponse {
  struct Item {
    bool found = false;
    util::Bytes element;  // serialized PageElement when found, else empty
  };

  std::optional<util::Bytes> certificate;  // serialized IntegrityCertificate
  std::vector<Item> items;                 // one per requested name, in order

  util::Bytes serialize() const;
  /// Client-side decode of a reply from an untrusted replica.  Bounds and
  /// framing are checked here; authenticity is NOT — the caller must parse
  /// and verify certificate/elements before trusting a single byte.
  static util::Result<FetchManyResponse> parse(GLOBE_UNTRUSTED util::BytesView data);
};

/// One kFetchMany round trip against `replica`.  PROTOCOL when the reply
/// does not echo one item per requested name.
GLOBE_BLOCKING util::Result<FetchManyResponse> fetch_many(net::Transport& transport,
                                           const net::Endpoint& replica,
                                           const FetchManyRequest& request);

}  // namespace globe::globedoc
