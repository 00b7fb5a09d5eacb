// Proxy-facing surface of the verified edge-cache tier (DESIGN.md §12).
//
// The tier itself lives in src/cache/ (target globe_cache) and depends on
// globe_globedoc; declaring the interface here keeps the dependency one-way
// while letting GlobeDocProxy route element fetches through a tier handed
// to it in ProxyConfig.
//
// Contract for implementations (what makes the tier *safe* to trust):
//   * an element may only be returned if it passed globedoc::verify_element
//     (globedoc/verify.hpp, the proxy's own step-6 check) under
//     `certificate` — either just now (a fill) or when it was admitted to
//     the cache (verified once, served many times from an untrusted
//     position, paper §3.2.2);
//   * a cached copy must never outlive its certificate entry's validity
//     window (expiry evicts);
//   * a failed verification must never be cached (no negative entries, no
//     poisoned groups).
#pragma once

#include <string>

#include "globedoc/element.hpp"
#include "globedoc/integrity.hpp"
#include "globedoc/oid.hpp"
#include "net/transport.hpp"
#include "util/status.hpp"

namespace globe::globedoc {

/// Outcome of one fetch through the tier.
struct EdgeFetch {
  PageElement element;
  bool cache_hit = false;  // served from the verified cache, zero upstream
};

class ElementCacheTier {
 public:
  virtual ~ElementCacheTier() = default;

  /// Returns the named element, served from cache when possible, otherwise
  /// filled from `replica` over `transport` and verified against
  /// `certificate` (which the caller has already signature-checked against
  /// the object key — the tier re-checks only per-element properties).
  /// Typed verification failures propagate exactly like the direct path's.
  virtual util::Result<EdgeFetch> fetch_through(
      net::Transport& transport, const net::Endpoint& replica, const Oid& oid,
      const IntegrityCertificate& certificate,
      const std::string& element_name) = 0;
};

}  // namespace globe::globedoc
