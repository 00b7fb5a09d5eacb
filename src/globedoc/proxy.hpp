// The GlobeDoc client proxy — the user-side half of the paper (Fig. 3).
//
// Installed next to the browser, it turns hybrid URLs into the secure
// browsing pipeline:
//   1.  resolve the object name to a self-certifying OID (secure naming);
//   2.  locate a nearby replica via the (untrusted) Location Service;
//   3.  fetch the object's public key and check SHA-1(key) == OID;
//   4.  optionally fetch identity certificates and match them against the
//       user's trusted CAs ("Certified as:");
//   5.  fetch the integrity certificate and verify its signature;
//   6.  fetch the requested page element and verify authenticity,
//       freshness and consistency against the certificate.
// Steps 3, 5 and 6 are the checks of globedoc/verify.hpp, shared with the
// edge tier and peer pulls.
// Any verification failure is typed (BAD_SIGNATURE, HASH_MISMATCH, EXPIRED,
// WRONG_ELEMENT, OID_MISMATCH, UNTRUSTED_ISSUER); on failure the proxy
// falls back to the next contact address, so a malicious replica or a lying
// Location Service causes at most a retry — never bad content (paper
// §3.1.2).  Non-hybrid requests pass through to a regular origin server.
//
// The proxy records one obs trace-span tree per fetch ("fetch" root with
// resolve / locate / key_check / identity / integrity_verify /
// element_verify children); the sum of the last four stages is the
// security-specific time of steps 3-6 — the quantity plotted in Figure 4.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "globedoc/cache_iface.hpp"
#include "globedoc/hybrid_url.hpp"
#include "globedoc/identity.hpp"
#include "globedoc/integrity.hpp"
#include "globedoc/object.hpp"
#include "http/client.hpp"
#include "http/message.hpp"
#include "location/tree.hpp"
#include "naming/resolver.hpp"
#include "net/transport.hpp"
#include "obs/collector.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/lru_cache.hpp"
#include "util/taint_annotations.hpp"

#include <atomic>

namespace globe::obs {
class AdminHttpServer;  // obs/admin.hpp
}

namespace globe::globedoc {

struct ProxyConfig {
  net::Endpoint naming_root;             // root name server
  crypto::RsaPublicKey naming_anchor;    // root zone trust anchor
  net::Endpoint location_site;           // local Location Service site node
  TrustStore trust;                      // user's trusted CAs
  bool request_identity = false;         // run step 4 during binding
  bool require_identity = false;         // fail binding when no trusted cert
  // Reuse verified bindings until their integrity certificate's last entry
  // expires (GlobeDocProxy::kMaxBindings documents, LRU).
  bool cache_bindings = false;
  // Verified edge-cache tier (src/cache/, DESIGN.md §12): the one place a
  // verified element is kept.  When set, step 6 routes through the tier:
  // hits serve locally until the element's certificate entry expires (the
  // per-element validity interval of §3.2.2 doubles as a sound cache TTL),
  // misses coalesce into one batched upstream fill per distinct element.
  // With cache_bindings on too, a repeat fetch is a binding hit plus a tier
  // hit with zero upstream RPCs (the "Verif" client strategy of ref [13]).
  // A tier may be private to this proxy or shared by every proxy on a node
  // — the sharing is what collapses a thundering herd.  Must outlive the
  // proxy; nullptr = direct per-request fetches.
  ElementCacheTier* edge_cache = nullptr;
  // Completed fetch traces (and, via RPC propagation, the server-side
  // fragments they caused) are stitched here; nullptr means the process-wide
  // obs::global_trace_collector().
  obs::TraceCollector* trace_collector = nullptr;
  // Registry for this proxy's metrics (proxy.*, and the per-replica
  // proxy.fetch_ms latency histogram); nullptr means the process-wide
  // obs::global_registry().  Per-node deployments hand each proxy its own
  // registry so the telemetry plane can scrape and label it individually.
  obs::MetricsRegistry* registry = nullptr;
  // Cost-profile registry (DESIGN.md §15): every probe fired while a fetch
  // runs — crypto primitives included — is attributed here; nullptr means
  // the process-wide obs::global_profile_registry().
  obs::ProfileRegistry* profile = nullptr;
};

/// Stage names of the per-fetch span tree and profile (children of "fetch").
struct FetchStage {
  static constexpr const char* kFetch = "fetch";                      // root
  static constexpr const char* kResolve = "resolve";                  // step 1
  static constexpr const char* kLocate = "locate";                    // step 2
  static constexpr const char* kKeyCheck = "key_check";               // step 3
  static constexpr const char* kIdentity = "identity";                // step 4
  static constexpr const char* kIntegrityVerify = "integrity_verify"; // step 5
  static constexpr const char* kElementVerify = "element_verify";     // step 6
  static constexpr const char* kEdgeCache = "edge_cache";  // step 6 via tier
};

struct FetchMetrics {
  util::SimDuration total_time = 0;
  /// Steps 3-6 (Fig. 4 numerator): the sum of the key_check, identity,
  /// integrity_verify and element_verify spans of `trace`, across every
  /// replica attempted.
  util::SimDuration security_time = 0;
  std::size_t content_bytes = 0;
  std::size_t replicas_tried = 0;
  bool used_cached_binding = false;
  bool served_from_edge_cache = false;  // edge tier hit, zero upstream RPCs
  /// Span tree of this fetch: a "fetch" root whose children are the
  /// pipeline stages (FetchStage names).  Timestamps come from the
  /// transport clock — virtual time under SimNet, wall time over TCP.
  obs::SpanRecord trace;
  /// 128-bit id of the distributed trace this fetch recorded; use it with
  /// TraceCollector::find() to get the stitched cross-host tree (the local
  /// `trace` above has no server-side spans).
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
};

struct FetchResult {
  PageElement element;
  std::optional<std::string> certified_as;  // subject of first trusted cert
  FetchMetrics metrics;
};

class GlobeDocProxy {
 public:
  GlobeDocProxy(net::Transport& transport, ProxyConfig config);

  /// Full pipeline for one hybrid URL.
  util::Result<FetchResult> fetch_url(const std::string& hybrid_url);
  util::Result<FetchResult> fetch(const std::string& object_name,
                                  const std::string& element_name);

  /// Browser-facing adapter: hybrid targets go through the secure pipeline
  /// (failures render the paper's "Security Check Failed" page); other
  /// targets are forwarded to the configured origin.  Trusted sink: what
  /// this returns is handed to the client's browser, so unverified replica
  /// bytes must never flow into the response (paper §3.3).
  GLOBE_TRUSTED_SINK http::HttpResponse handle_browser_request(
      const http::HttpRequest& request);
  void set_origin_fallback(const net::Endpoint& origin) { origin_ = origin; }

  std::size_t binding_count() const { return bindings_.size(); }

  /// Registers this proxy's readiness probes on an admin surface:
  /// "naming" (root name server reachable), "location" (local Location
  /// Service node reachable), "replica" (the channel to the last replica
  /// served from, once one exists).  The proxy must outlive `admin`.
  void register_health_checks(obs::AdminHttpServer& admin);

  net::Transport& transport() { return *transport_; }

  /// Bounds of the proxy's caches, each a least-recently-used store.
  static constexpr std::size_t kMaxBindings = 256;
  static constexpr std::size_t kCertMemoCapacity = 64;  // documents

 private:
  struct Binding {
    Oid oid;
    net::Endpoint replica;
    crypto::RsaPublicKey object_key;
    IntegrityCertificate certificate;
    std::optional<std::string> certified_as;
  };

  /// Body of fetch(); spans open on `tracer`, stats land in `metrics`.
  util::Result<FetchResult> fetch_inner(const std::string& object_name,
                                        const std::string& element_name,
                                        FetchMetrics& metrics, obs::Tracer& tracer);

  /// Steps 1-5 against one specific replica address.  Sanitizer: a binding
  /// only comes back Ok after the self-certifying key check and integrity
  /// certificate verification succeeded against `address`.
  GLOBE_SANITIZER util::Result<Binding> bind_replica(const Oid& oid,
                                                     const net::Endpoint& address,
                                                     obs::Tracer& tracer);

  /// Step 6 against an established binding.
  util::Result<PageElement> fetch_element(const Binding& binding,
                                          const std::string& element_name,
                                          FetchMetrics& metrics, obs::Tracer& tracer);

  /// Success tail of a fetch served under a cached or fresh binding: observes
  /// proxy.fetch_ms since `start` and hands the element to the caller (and so
  /// to the browser).  Trusted sink: only elements that passed
  /// verify_element(), directly or inside the edge tier, may reach it.
  FetchResult serve(GLOBE_TRUSTED_SINK const Binding& binding,
                    GLOBE_TRUSTED_SINK PageElement element,
                    FetchMetrics& metrics, util::SimTime start);

  net::Transport* transport_;
  ProxyConfig config_;
  // Endpoint of the replica the last successful fetch was served from,
  // packed ((1<<63) | host<<16 | port) so health probes on another thread
  // read it without a lock; 0 = none yet.
  std::atomic<std::uint64_t> last_replica_{0};
  // Registry series (handles live as long as the registry, which must
  // outlive the proxy).
  obs::MetricsRegistry* registry_;
  obs::Counter* fetches_ok_;
  obs::Counter* fetches_failed_;
  obs::Counter* binding_cache_hits_;
  obs::Counter* replicas_tried_;
  obs::Counter* cert_verifies_;
  obs::Counter* cert_verify_memo_hits_;
  naming::SecureResolver resolver_;
  location::LocationClient locator_;
  std::optional<net::Endpoint> origin_;
  // object name -> verified binding, until its certificate's last entry
  // expires.
  util::LruCache<std::string, Binding> bindings_{{.max_entries = kMaxBindings}};
  // Integrity-certificate verification memo: one RSA verify per
  // (document key, certificate), not one per element fetched.  Keyed on the
  // EXACT raw bytes of (serialized object key, serialized certificate), so a
  // memo hit replays a verification of byte-identical inputs — no weaker
  // than re-running it.  Only successes are remembered.
  util::LruCache<std::pair<util::Bytes, util::Bytes>, bool> cert_verify_memo_{
      {.max_entries = kCertMemoCapacity}};
};

}  // namespace globe::globedoc
