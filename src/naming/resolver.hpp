// Validating resolver: walks the zone tree from a trust anchor, verifying
// every signature and expiry, and returns the self-certifying OID bound to
// a name (paper §3.1.2).
#pragma once

#include <string>

#include "crypto/rsa.hpp"
#include "naming/records.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "util/lru_cache.hpp"
#include "util/taint_annotations.hpp"

namespace globe::naming {

class SecureResolver {
 public:
  /// `anchor_key` is the root zone's public key configured out of band —
  /// the single trust anchor, exactly like a DNSsec root key.  `registry`
  /// receives the naming.* client series; nullptr means the process-wide
  /// obs::global_registry().
  SecureResolver(net::Transport& transport, net::Endpoint root_server,
                 crypto::RsaPublicKey anchor_key,
                 obs::MetricsRegistry* registry = nullptr);

  /// Resolves a name to its (verified, fresh) OID.  Security failures map
  /// to the typed codes: BAD_SIGNATURE, EXPIRED, WRONG_ELEMENT (record
  /// names a different name than asked), PROTOCOL.  A successful result is
  /// a sanitized value: every record on the walk was signature-checked
  /// against the chain rooted in the configured trust anchor.
  GLOBE_SANITIZER util::Result<util::Bytes> resolve(const std::string& name);

  /// Enables client-side positive caching of verified answers: each one is
  /// served until its OID record expires, at most kCacheEntries names at a
  /// time (least recently resolved evicted first).
  static constexpr std::size_t kCacheEntries = 1024;
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }
  std::size_t cache_size() const { return cache_.size(); }

 private:
  util::Result<util::Bytes> resolve_walk(const std::string& name);

  net::Transport* transport_;
  net::Endpoint root_server_;
  crypto::RsaPublicKey anchor_;
  bool cache_enabled_ = false;
  // name -> OID, each until its record expires
  util::LruCache<std::string, util::Bytes> cache_{{.max_entries = kCacheEntries}};
  // Registry series: resolves by outcome, cache hits, referral hops,
  // signatures verified.
  obs::Counter* resolves_ok_;
  obs::Counter* resolves_failed_;
  obs::Counter* cache_hits_;
  obs::Counter* referrals_;
  obs::Counter* signatures_counter_;
};

}  // namespace globe::naming
