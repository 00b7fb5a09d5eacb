#include "cache/tier.hpp"

#include "globedoc/fetch_many.hpp"
#include "globedoc/verify.hpp"
#include "obs/profile.hpp"
#include "util/clock.hpp"

namespace globe::cache {
namespace {

// Same bucket layout as proxy.fetch_ms so hit-vs-fill latency lines up on
// one dashboard.  The sub-millisecond bounds exist for cache hits, which
// cost memcopy time only — with a 1 ms smallest bucket every hit quantile
// collapses to 0.
const std::vector<double>& fill_ms_bounds() {
  static const std::vector<double> kBounds = {0.05, 0.1, 0.2, 0.5,  1,
                                              2,    5,   10,  20,   50,
                                              100,  200, 500, 1000, 2000, 5000};
  return kBounds;
}

}  // namespace

EdgeCacheTier::EdgeCacheTier(TierConfig config)
    : config_(config),
      cache_(config.cache),
      replicator_(cache_),
      seen_({.max_entries = 4096}) {
  if (config_.registry) {
    auto& reg = *config_.registry;
    hits_ = &reg.counter("cache.hits");
    misses_ = &reg.counter("cache.misses");
    coalesced_ = &reg.counter("cache.coalesced_waiters");
    evictions_capacity_ =
        &reg.counter("cache.evictions", {{"reason", "capacity"}});
    evictions_expired_ =
        &reg.counter("cache.evictions", {{"reason", "expired"}});
    evictions_explicit_ =
        &reg.counter("cache.evictions", {{"reason", "explicit"}});
    delayed_pulls_ = &reg.counter("cache.delayed_pulls");
    delayed_dropped_ = &reg.counter("cache.delayed_dropped");
    fill_ms_ = &reg.histogram("cache.fill_ms", fill_ms_bounds());
  }
  // Runs under the cache lock; replicator_.cancel takes only the replicator
  // lock, so the tier-wide lock order is cache → replicator.
  cache_.set_eviction_listener([this](const CacheKey& key, EvictReason why) {
    switch (why) {
      case EvictReason::kCapacity:
        if (evictions_capacity_) evictions_capacity_->inc();
        break;
      case EvictReason::kExpired:
        if (evictions_expired_) evictions_expired_->inc();
        break;
      case EvictReason::kExplicit:
        if (evictions_explicit_) evictions_explicit_->inc();
        break;
    }
    replicator_.cancel(key.oid);
  });
}

bool EdgeCacheTier::first_access(const globedoc::Oid& oid) {
  util::LockGuard lock(seen_mutex_);
  if (seen_.peek(oid) != nullptr) return false;
  seen_.put(oid, true);  // oldest first out: peek() leaves recency alone
  return true;
}

util::Result<globedoc::EdgeFetch> EdgeCacheTier::fetch_through(
    net::Transport& transport, const net::Endpoint& replica,
    const globedoc::Oid& oid, const globedoc::IntegrityCertificate& cert,
    const std::string& element_name) {
  const auto* entry = cert.find(element_name);
  if (entry == nullptr) {
    return util::Status(util::ErrorCode::kNotFound,
                        "no certificate entry for element " + element_name);
  }
  if (entry->expires <= transport.now()) {
    // Refuse before touching cache or network: a stale certificate entry
    // can neither be served nor refreshed from here (the proxy must
    // re-resolve a fresh certificate first).
    return util::Status(util::ErrorCode::kExpired,
                        "certificate entry expired for " + element_name);
  }

  if (config_.delayed_replication && first_access(oid)) {
    if (!replicator_.schedule(oid, replica, cert, element_name) &&
        cert.entries().size() > 1 && delayed_dropped_) {
      delayed_dropped_->inc();
    }
  }

  const CacheKey key{oid, element_name, entry->sha1};
  if (auto hit = cache_.lookup(key, transport.now())) {
    if (hits_) hits_->inc();
    globedoc::EdgeFetch out;
    out.element = std::move(hit->element);
    // Serving a hit copies the element out of memory — charge it so hit
    // latency is small-but-nonzero and sub-ms percentiles stay honest.
    transport.charge(net::CpuOp::kMemCopy, out.element.content.size());
    out.cache_hit = true;
    return out;
  }
  if (misses_) misses_->inc();

  auto outcome = flights_.run(key, [&]() -> util::Result<EdgeFill> {
    return fill(transport, replica, oid, cert, *entry);
  });
  if (!outcome.leader && coalesced_) coalesced_->inc();
  if (!outcome.result.is_ok()) return outcome.result.status();

  EdgeFill filled = std::move(outcome.result).value();
  if (!outcome.leader) {
    // A waiter's flow spent the leader's wall time blocked on the flight:
    // sync its virtual clock so coalesced latency is modelled, not free.
    transport.advance_to(filled.completed_at);
  }
  globedoc::EdgeFetch out;
  out.element = std::move(filled.element);
  return out;
}

util::Result<EdgeCacheTier::EdgeFill> EdgeCacheTier::fill(
    net::Transport& transport, const net::Endpoint& replica,
    const globedoc::Oid& oid, const globedoc::IntegrityCertificate& cert,
    const globedoc::ElementEntry& entry) {
  GLOBE_PROFILE_SCOPE("cache.fill");
  const util::SimTime start = transport.now();

  // Leader double-check: a caller that missed the cache just before the
  // previous flight's insert landed becomes leader of a fresh flight.  Serve
  // the freshly admitted entry instead of re-fetching, so a herd costs the
  // origin one upstream fetch per element, not one per flight generation.
  const CacheKey key{oid, entry.name, entry.sha1};
  if (auto hit = cache_.lookup(key, transport.now())) {
    EdgeFill cached;
    cached.element = std::move(hit->element);
    transport.charge(net::CpuOp::kMemCopy, cached.element.content.size());
    cached.completed_at = transport.now();
    return cached;
  }

  globedoc::FetchManyRequest request;
  request.oid = oid;
  request.include_cert = false;  // filling under an already-verified cert
  request.names.push_back(entry.name);
  auto response = globedoc::fetch_many(transport, replica, request);
  if (!response.is_ok()) return response.status();

  auto& item = response.value().items.front();
  if (!item.found) {
    return util::Status(util::ErrorCode::kNotFound,
                        "replica has no element " + entry.name);
  }
  auto element = globedoc::verify_element(transport, cert, entry.name,
                                          std::move(item.element));
  if (!element.is_ok()) return element.status();  // failures never admit

  cache_.insert(key, *element, entry.expires);
  if (fill_ms_) fill_ms_->observe(util::to_millis(transport.now() - start));

  EdgeFill filled;
  filled.element = std::move(*element);
  filled.completed_at = transport.now();
  return filled;
}

DelayedReplicator::PumpStats EdgeCacheTier::run_delayed_pulls(
    net::Transport& transport) {
  if (!config_.delayed_replication) return {};
  auto stats = replicator_.pump(transport);
  if (delayed_pulls_ && stats.elements_pulled > 0) {
    delayed_pulls_->inc(stats.elements_pulled);
  }
  return stats;
}

}  // namespace globe::cache
