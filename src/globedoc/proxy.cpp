#include "globedoc/proxy.hpp"

#include <algorithm>

#include "globedoc/server.hpp"
#include "globedoc/verify.hpp"
#include "obs/admin.hpp"
#include "obs/trace.hpp"
#include "rpc/rpc.hpp"
#include "util/serial.hpp"

namespace globe::globedoc {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

// Failure pages embed error text that can carry attacker-chosen fragments
// (element names from the requested URL, addresses and messages relayed from
// replicas).  Escape it so a hostile replica cannot turn the paper's
// "Security Check Failed" document into script injection at the client.
std::string html_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&#39;"; break;
      default: out += c; break;
    }
  }
  return out;
}

/// proxy.fetch_ms bucket bounds (milliseconds).  The SLO latency evaluator
/// counts whole buckets, so latency objectives should sit on one of these.
/// Sub-millisecond bounds resolve cache-hit latencies, which cost memcopy
/// time only — without them every hit percentile collapses to 0.
const std::vector<double>& fetch_ms_bounds() {
  static const std::vector<double> bounds = {0.05, 0.1, 0.2, 0.5,  1,
                                             2,    5,   10,  20,   50,
                                             100,  200, 500, 1000, 2000, 5000};
  return bounds;
}

/// One fetch-path stage under one name: the FetchStage trace span and a
/// cost probe of that name, opened and ended together.
struct Stage {
  Stage(obs::Tracer& tracer, const char* name)
      : span(tracer.span(name)), probe(std::in_place, name) {}
  void end() { probe.reset(); span.end(); }
  obs::Tracer::Span span;
  std::optional<obs::CostProbe> probe;
};

}  // namespace

GlobeDocProxy::GlobeDocProxy(net::Transport& transport, ProxyConfig config)
    : transport_(&transport),
      config_(std::move(config)),
      registry_(config_.registry != nullptr ? config_.registry
                                            : &obs::global_registry()),
      resolver_(transport, config_.naming_root, config_.naming_anchor,
                registry_),
      locator_(transport, config_.location_site, registry_) {
  fetches_ok_ = &registry_->counter("proxy.fetches", {{"outcome", "ok"}});
  fetches_failed_ = &registry_->counter("proxy.fetches", {{"outcome", "error"}});
  binding_cache_hits_ = &registry_->counter("proxy.cache.binding_hits");
  replicas_tried_ = &registry_->counter("proxy.replicas_tried");
  cert_verifies_ = &registry_->counter("proxy.cert_verifies");
  cert_verify_memo_hits_ = &registry_->counter("proxy.cert_verify_memo_hits");
}

Result<FetchResult> GlobeDocProxy::fetch_url(const std::string& hybrid_url) {
  auto parsed = parse_hybrid_url(hybrid_url);
  if (!parsed.is_ok()) return parsed.status();
  return fetch(parsed->object_name, parsed->element_name);
}

Result<GlobeDocProxy::Binding> GlobeDocProxy::bind_replica(const Oid& oid,
                                                           const net::Endpoint& address,
                                                           obs::Tracer& tracer) {
  rpc::RpcClient replica(*transport_, address);
  const Bytes oid_req = oid.to_bytes();

  // --- Step 3: public key, self-certifying check (security time).
  Stage key_check(tracer, FetchStage::kKeyCheck);
  auto object_key = fetch_object_key(replica, oid);
  if (!object_key.is_ok()) return object_key.status();
  key_check.end();

  Binding binding;
  binding.oid = oid;
  binding.replica = address;
  binding.object_key = std::move(*object_key);

  // --- Step 4: identity certificates against the user's trusted CAs.
  if (config_.request_identity) {
    Stage identity(tracer, FetchStage::kIdentity);
    auto certs_raw =
        replica.call(rpc::kGlobeDocSecurity, kGetIdentityCerts, oid_req);
    if (certs_raw.is_ok()) {
      // Each certificate may cost an RSA verify: the decode caps the count.
      std::vector<IdentityCertificate> certs = parse_identity_list(*certs_raw);
      // One public-key verification per certificate examined.
      transport_->charge(net::CpuOp::kRsaVerify, certs.size());
      binding.certified_as =
          config_.trust.first_trusted_subject(certs, oid, transport_->now());
    }
    if (config_.require_identity && !binding.certified_as.has_value()) {
      return Result<Binding>(ErrorCode::kUntrustedIssuer,
                             "no identity certificate from a trusted CA");
    }
  }

  // --- Step 5: integrity certificate, signature check.
  Stage integrity_verify(tracer, FetchStage::kIntegrityVerify);
  auto cert_raw = replica.call(rpc::kGlobeDocSecurity, kGetIntegrityCert, oid_req);
  if (!cert_raw.is_ok()) return cert_raw.status();
  auto certificate = IntegrityCertificate::parse(*cert_raw);
  if (!certificate.is_ok()) return certificate.status();
  // One RSA verify per (document key, certificate): a document fetch touches
  // many elements, each re-binding when bindings aren't cached, but the
  // certificate bytes rarely change between those binds.  The memo replays
  // verifications of byte-identical (key, certificate) inputs only — and the
  // key fixes the OID — so the hit path is exactly as strong as re-verifying.
  std::pair<Bytes, Bytes> memo_key{binding.object_key.serialize(), *cert_raw};
  {
    // The probe covers hit and miss alike, so /profilez shows cert_verify
    // at ~zero ns/call when the memo is absorbing re-binds.
    GLOBE_PROFILE_SCOPE("cert_verify");
    if (cert_verify_memo_.find(memo_key, transport_->now()) != nullptr) {
      cert_verify_memo_hits_->inc();
    } else {
      cert_verifies_->inc();
      Status verified =
          verify_certificate(*transport_, *certificate, binding.object_key, oid);
      if (!verified.is_ok()) return verified;
      cert_verify_memo_.put(std::move(memo_key), true);
    }
  }
  binding.certificate = std::move(*certificate);
  return binding;
}

Result<PageElement> GlobeDocProxy::fetch_element(const Binding& binding,
                                                 const std::string& element_name,
                                                 FetchMetrics& metrics,
                                                 obs::Tracer& tracer) {
  // Edge-cache tier (step 6 via the verified element cache): hits are served
  // locally, misses coalesce into one batched fill.  A fill runs the same
  // verify_element check as the direct path below, under
  // `binding.certificate`; verification time lands in the edge_cache span
  // instead of element_verify.
  if (config_.edge_cache != nullptr) {
    Stage edge_cache(tracer, FetchStage::kEdgeCache);
    auto fetched = config_.edge_cache->fetch_through(
        *transport_, binding.replica, binding.oid, binding.certificate,
        element_name);
    edge_cache.end();
    if (!fetched.is_ok()) return fetched.status();
    metrics.served_from_edge_cache = fetched->cache_hit;
    metrics.content_bytes += fetched->element.content.size();
    return std::move(fetched->element);
  }

  rpc::RpcClient replica(*transport_, binding.replica);
  util::Writer req;
  req.raw(binding.oid.to_bytes());
  req.str(element_name);
  auto raw = replica.call(rpc::kGlobeDocAccess, kGetElement, req.buffer());
  if (!raw.is_ok()) return raw.status();

  // --- Step 6: authenticity, consistency, freshness (security time).
  Stage element_verify(tracer, FetchStage::kElementVerify);
  auto element = verify_element(*transport_, binding.certificate, element_name,
                                std::move(*raw));
  element_verify.end();
  if (!element.is_ok()) return element.status();

  metrics.content_bytes += element->content.size();
  return element;
}

FetchResult GlobeDocProxy::serve(const Binding& binding, PageElement element,
                                 FetchMetrics& metrics, util::SimTime start) {
  metrics.total_time = transport_->now() - start;
  // Per-replica end-to-end latency: the series the latency SLO watches,
  // labeled so a burn-rate alert names the slow replica directly.
  registry_
      ->histogram("proxy.fetch_ms", fetch_ms_bounds(),
                  {{"replica", binding.replica.to_string()}})
      .observe(util::to_millis(metrics.total_time));
  return FetchResult{std::move(element), binding.certified_as, metrics};
}

Result<FetchResult> GlobeDocProxy::fetch(const std::string& object_name,
                                         const std::string& element_name) {
  // Everything below — resolver walk, binding crypto, element verification —
  // is attributed to this proxy's profile registry (DESIGN.md §15).
  obs::ProfileRegistryScope profile_scope(config_.profile);
  FetchMetrics metrics;
  obs::Tracer tracer([this] { return transport_->now(); });
  tracer.set_host("proxy");
  tracer.set_sink(config_.trace_collector != nullptr
                      ? config_.trace_collector
                      : &obs::global_trace_collector());
  auto result = fetch_inner(object_name, element_name, metrics, tracer);

  // The root span closed when fetch_inner returned; derive the Fig. 4
  // numerator from the per-stage spans (across every replica attempted).
  auto finished = tracer.take_finished();
  if (result.is_ok() && !finished.empty()) {
    obs::SpanRecord& trace = finished.front();
    result->metrics.security_time =
        obs::span_total(trace, FetchStage::kKeyCheck) +
        obs::span_total(trace, FetchStage::kIdentity) +
        obs::span_total(trace, FetchStage::kIntegrityVerify) +
        obs::span_total(trace, FetchStage::kElementVerify);
    result->metrics.trace = std::move(trace);
    result->metrics.trace_hi = tracer.trace_hi();
    result->metrics.trace_lo = tracer.trace_lo();
  }
  (result.is_ok() ? fetches_ok_ : fetches_failed_)->inc();
  return result;
}

Result<FetchResult> GlobeDocProxy::fetch_inner(const std::string& object_name,
                                               const std::string& element_name,
                                               FetchMetrics& metrics,
                                               obs::Tracer& tracer) {
  Stage root(tracer, FetchStage::kFetch);
  util::SimTime start = transport_->now();

  // Cached binding fast path (re-binds on any failure below).
  if (config_.cache_bindings) {
    if (const auto* hit = bindings_.find(object_name, transport_->now())) {
      const Binding& binding = hit->value;
      metrics.used_cached_binding = true;
      metrics.replicas_tried = 1;
      auto element = fetch_element(binding, element_name, metrics, tracer);
      if (element.is_ok()) {
        binding_cache_hits_->inc();
        return serve(binding, std::move(*element), metrics, start);
      }
      bindings_.erase(object_name);
      metrics.used_cached_binding = false;
    }
  }

  // --- Step 1: secure name resolution.
  Stage resolve(tracer, FetchStage::kResolve);
  auto oid_bytes = resolver_.resolve(object_name);
  if (!oid_bytes.is_ok()) return oid_bytes.status();
  auto oid = Oid::from_bytes(*oid_bytes);
  if (!oid.is_ok()) return oid.status();
  resolve.end();

  // --- Step 2: replica location (untrusted).
  Stage locate(tracer, FetchStage::kLocate);
  auto addresses = locator_.lookup(*oid_bytes);
  if (!addresses.is_ok()) return addresses.status();
  if (addresses->empty()) {
    return Result<FetchResult>(ErrorCode::kNotFound, "no replicas registered");
  }
  locate.end();

  // --- Steps 3-6 with fallback across contact addresses.
  Status last_error(ErrorCode::kUnavailable, "no address tried");
  for (const auto& address : *addresses) {
    ++metrics.replicas_tried;
    replicas_tried_->inc();
    auto binding = bind_replica(*oid, address, tracer);
    if (!binding.is_ok()) {
      last_error = binding.status();
      obs::emit_event(obs::EventLevel::kWarn, "proxy", "binding_failed",
                      address.to_string() + ": " + last_error.to_string());
      continue;
    }
    auto element = fetch_element(*binding, element_name, metrics, tracer);
    if (!element.is_ok()) {
      last_error = element.status();
      obs::emit_event(obs::EventLevel::kWarn, "proxy", "element_rejected",
                      address.to_string() + ": " + last_error.to_string());
      continue;
    }
    if (config_.cache_bindings) {
      // A binding outlives no entry of its certificate: once the last one
      // expires, no element can verify under it.
      util::SimTime expires = 0;
      for (const auto& entry : binding->certificate.entries()) {
        expires = std::max(expires, entry.expires);
      }
      bindings_.put(object_name, *binding, expires);
    }
    last_replica_.store((std::uint64_t{1} << 63) |
                            (std::uint64_t{address.host.value} << 16) |
                            address.port,
                        std::memory_order_relaxed);
    return serve(*binding, std::move(*element), metrics, start);
  }
  return last_error;
}

void GlobeDocProxy::register_health_checks(obs::AdminHttpServer& admin) {
  admin.add_health_check("naming", [this](net::ServerContext& ctx) {
    return obs::reachability_probe(ctx, config_.naming_root);
  });
  admin.add_health_check("location", [this](net::ServerContext& ctx) {
    return obs::reachability_probe(ctx, config_.location_site);
  });
  // Replica channel: the endpoint of the last successful fetch.  Vacuously
  // ready until one exists (nothing to probe yet).
  admin.add_health_check("replica", [this](net::ServerContext& ctx) {
    std::uint64_t packed = last_replica_.load(std::memory_order_relaxed);
    if ((packed >> 63) == 0) return util::Status::ok();
    net::Endpoint replica{
        net::HostId{static_cast<std::uint32_t>((packed >> 16) & 0xFFFFFFFF)},
        static_cast<std::uint16_t>(packed & 0xFFFF)};
    return obs::reachability_probe(ctx, replica);
  });
}

http::HttpResponse GlobeDocProxy::handle_browser_request(
    const http::HttpRequest& request) {
  if (is_hybrid_url(request.target)) {
    auto result = fetch_url(request.target);
    if (result.is_ok()) {
      // The verified content moves into the body: no copy on the way out.
      auto resp = http::HttpResponse::make(
          200, "OK", std::move(result->element.content), result->element.content_type);
      if (result->certified_as.has_value()) {
        resp.headers.set("X-GlobeDoc-Certified-As", *result->certified_as);
      }
      return resp;
    }
    // The paper's "Security Check Failed" document.
    Status status = result.status();
    bool security_failure = util::is_verification_failure(status.code());
    int code = security_failure ? 403 : (status.code() == ErrorCode::kNotFound ? 404 : 502);
    std::string body =
        "<html><head><title>Security Check Failed</title></head><body>"
        "<h1>" +
        std::string(security_failure ? "Security Check Failed" : "GlobeDoc Error") +
        "</h1><p>" + html_escape(status.to_string()) + "</p></body></html>";
    return http::HttpResponse::make(code, http::reason_for_status(code),
                                    util::to_bytes(body));
  }

  // Plain HTTP passthrough.
  if (!origin_.has_value()) {
    return http::HttpResponse::make(
        502, "Bad Gateway",
        util::to_bytes("<html><body>no origin configured</body></html>"));
  }
  http::HttpClient client(*transport_);
  auto resp = client.request(*origin_, request);
  if (!resp.is_ok()) {
    return http::HttpResponse::make(
        502, "Bad Gateway",
        util::to_bytes("<html><body>" + html_escape(resp.status().to_string()) +
                       "</body></html>"));
  }
  return *resp;
}

}  // namespace globe::globedoc
