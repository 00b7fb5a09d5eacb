// EdgeCacheTier end-to-end: verified-once-serve-many, thundering-herd
// coalescing, delayed replication, adversarial fills, and the proxy
// integration (cert-verify memo, decorated-URL coalescing).
#include "cache/tier.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "globedoc/adversary.hpp"
#include "globedoc/proxy.hpp"
#include "obs/profile.hpp"
#include "tests/globedoc/operator_view.hpp"
#include "tests/globedoc/world_fixture.hpp"

namespace globe::cache {
namespace {

using globe::globedoc::testing::elements_served;
using globe::globedoc::testing::WorldFixture;
using globedoc::GlobeDocProxy;
using globedoc::ProxyConfig;
using util::ErrorCode;

struct TierFixture : WorldFixture {
  TierConfig tier_config() {
    TierConfig config;
    config.registry = &registry;
    return config;
  }

  /// The certificate the published replica is currently serving under.
  globedoc::IntegrityCertificate current_cert() {
    return owner->object().snapshot().certificate;
  }

  globedoc::Oid oid() { return owner->object().oid(); }

  obs::MetricsRegistry registry;
};

TEST_F(TierFixture, MissFillsThenHitServesWithoutOrigin) {
  EdgeCacheTier tier(tier_config());
  auto cert = current_cert();

  auto first = tier.fetch_through(*client_flow, server_ep, oid(), cert,
                                  "index.html");
  ASSERT_TRUE(first.is_ok());
  EXPECT_FALSE(first->cache_hit);
  const std::size_t served_after_fill = elements_served("srv-1");

  auto second = tier.fetch_through(*client_flow, server_ep, oid(), cert,
                                   "index.html");
  ASSERT_TRUE(second.is_ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->element.content, first->element.content);
  // The hit never touched the origin.
  EXPECT_EQ(elements_served("srv-1"), served_after_fill);
  EXPECT_EQ(registry.counter("cache.hits").value(), 1u);
  EXPECT_EQ(registry.counter("cache.misses").value(), 1u);
}

TEST_F(TierFixture, SharedTierCollapsesManyClientsToOneOriginFetch) {
  EdgeCacheTier tier(tier_config());
  auto cert = current_cert();

  // Two independent proxies (two "clients") share the node's tier.
  ProxyConfig pc = proxy_config();
  pc.edge_cache = &tier;
  GlobeDocProxy proxy_a(*client_flow, pc);
  auto flow_b = net.open_flow(client_host);
  GlobeDocProxy proxy_b(*flow_b, pc);

  const std::size_t before = elements_served("srv-1");
  auto a = proxy_a.fetch(object_name, "logo.gif");
  auto b = proxy_b.fetch(object_name, "logo.gif");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_FALSE(a->metrics.served_from_edge_cache);
  EXPECT_TRUE(b->metrics.served_from_edge_cache);
  // One origin element fetch for two clients.
  EXPECT_EQ(elements_served("srv-1"), before + 1);
}

TEST_F(TierFixture, DelayedReplicationPullsSiblingsInBackground) {
  EdgeCacheTier tier(tier_config());
  auto cert = current_cert();

  ASSERT_TRUE(tier.fetch_through(*client_flow, server_ep, oid(), cert,
                                 "index.html")
                  .is_ok());
  EXPECT_EQ(tier.replicator().pending(), 1u);

  auto stats = tier.run_delayed_pulls(*client_flow);
  EXPECT_EQ(stats.elements_pulled, 2u);  // logo.gif + story.txt
  EXPECT_EQ(stats.elements_failed, 0u);
  EXPECT_EQ(tier.replicator().pending(), 0u);
  EXPECT_EQ(registry.counter("cache.delayed_pulls").value(), 2u);

  // Siblings now serve from cache with zero origin traffic.
  const std::size_t served = elements_served("srv-1");
  auto logo =
      tier.fetch_through(*client_flow, server_ep, oid(), cert, "logo.gif");
  auto story =
      tier.fetch_through(*client_flow, server_ep, oid(), cert, "story.txt");
  ASSERT_TRUE(logo.is_ok());
  ASSERT_TRUE(story.is_ok());
  EXPECT_TRUE(logo->cache_hit);
  EXPECT_TRUE(story->cache_hit);
  EXPECT_EQ(elements_served("srv-1"), served);
}

TEST_F(TierFixture, EvictionCancelsPendingDelayedPulls) {
  EdgeCacheTier tier(tier_config());
  auto cert = current_cert();

  ASSERT_TRUE(tier.fetch_through(*client_flow, server_ep, oid(), cert,
                                 "index.html")
                  .is_ok());
  ASSERT_EQ(tier.replicator().pending(), 1u);

  // Evicting the document's entry cancels its queued background pulls
  // (listener runs under the cache lock; cache → replicator lock order).
  tier.element_cache().clear();
  EXPECT_EQ(tier.replicator().pending(), 0u);
  auto stats = tier.run_delayed_pulls(*client_flow);
  EXPECT_EQ(stats.elements_pulled, 0u);
}

TEST_F(TierFixture, TamperedFillFailsEveryCallerAndPoisonsNothing) {
  EdgeCacheTier tier(tier_config());
  auto cert = current_cert();

  // A man-in-the-middle position serving defaced elements.
  net::Endpoint evil{server_host, 6666};
  net.bind(evil,
           globedoc::tampering_element_attack(server_dispatcher.handler()));

  // A coalesced group of clients racing the same element via the tampered
  // position: EVERY caller must see the verification failure — whether it
  // led the fill or waited on it — and the cache must stay clean.
  constexpr int kClients = 4;
  std::vector<std::unique_ptr<net::SimFlow>> flows;
  for (int i = 0; i < kClients; ++i) flows.push_back(net.open_flow(client_host));
  std::atomic<int> hash_mismatches{0};
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto result =
          tier.fetch_through(*flows[i], evil, oid(), cert, "index.html");
      if (!result.is_ok() &&
          result.status().code() == ErrorCode::kHashMismatch) {
        hash_mismatches.fetch_add(1);
      } else if (result.is_ok()) {
        successes.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(successes.load(), 0);
  EXPECT_EQ(hash_mismatches.load(), kClients);
  EXPECT_EQ(tier.element_cache().size(), 0u);  // failure admitted nothing

  // The failed flight is not sticky: the honest replica fills fine.
  auto good = tier.fetch_through(*client_flow, server_ep, oid(), cert,
                                 "index.html");
  ASSERT_TRUE(good.is_ok());
  EXPECT_FALSE(good->cache_hit);
}

TEST_F(TierFixture, FillChargesSha1OverTheWholeElement) {
  // A fill verifies like the direct path: one SHA-1 over the serialized
  // element, charged to the client's CPU — not a one-byte token charge.
  TierConfig config = tier_config();
  config.delayed_replication = false;
  EdgeCacheTier tier(config);
  const std::size_t serialized =
      owner->object().element("logo.gif")->serialize().size();

  const util::SimDuration before = client_flow->client_cpu();
  ASSERT_TRUE(tier.fetch_through(*client_flow, server_ep, oid(), current_cert(),
                                 "logo.gif")
                  .is_ok());
  EXPECT_GE(client_flow->client_cpu() - before,
            net.host(client_host).cpu.cost(net::CpuOp::kSha1, serialized));
}

TEST_F(TierFixture, ExpiredEntryIsRefetchedNotServed) {
  EdgeCacheTier tier(tier_config());
  auto cert = current_cert();
  ASSERT_TRUE(tier.fetch_through(*client_flow, server_ep, oid(), cert,
                                 "index.html")
                  .is_ok());

  // Past the validity window the cached copy is dead; with only the stale
  // certificate in hand the tier refuses outright (kExpired, no network).
  client_flow->advance(util::seconds(4000));
  auto stale = tier.fetch_through(*client_flow, server_ep, oid(), cert,
                                  "index.html");
  ASSERT_FALSE(stale.is_ok());
  EXPECT_EQ(stale.status().code(), ErrorCode::kExpired);

  // The owner refreshes the replica; under the NEW certificate the tier
  // refetches from the origin — the expired entry is never served.
  publish_flow->set_time(client_flow->now());
  ASSERT_TRUE(owner
                  ->refresh_replicas(*publish_flow, client_flow->now(),
                                     util::seconds(3600))
                  .is_ok());
  auto fresh_cert = current_cert();
  const std::size_t served = elements_served("srv-1");
  auto again = tier.fetch_through(*client_flow, server_ep, oid(), fresh_cert,
                                  "index.html");
  ASSERT_TRUE(again.is_ok());
  EXPECT_FALSE(again->cache_hit);                         // refetched...
  EXPECT_EQ(elements_served("srv-1"), served + 1);  // ...from origin
  EXPECT_GE(registry.counter("cache.evictions", {{"reason", "expired"}}).value(),
            1u);
}

TEST_F(TierFixture, ConcurrentFillAndEvictionIsRaceFree) {
  // Tiny cache so fills constantly displace each other while explicit
  // evictions run alongside — the TSan lane turns any lock slip into a
  // failure.
  TierConfig config = tier_config();
  config.cache.max_entries = 2;
  config.delayed_replication = false;
  EdgeCacheTier tier(config);
  auto cert = current_cert();

  const std::vector<std::string> names = {"index.html", "logo.gif",
                                          "story.txt"};
  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  std::vector<std::unique_ptr<net::SimFlow>> flows;
  for (int i = 0; i < kThreads; ++i) flows.push_back(net.open_flow(client_host));
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int it = 0; it < kIters; ++it) {
        const auto& name = names[(i + it) % names.size()];
        auto result =
            tier.fetch_through(*flows[i], server_ep, oid(), cert, name);
        if (!result.is_ok()) errors.fetch_add(1);
      }
    });
  }
  std::thread evictor([&] {
    for (int it = 0; it < kIters; ++it) {
      tier.element_cache().erase(
          CacheKey{oid(), names[it % names.size()],
                   cert.find(names[it % names.size()])->sha1});
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();
  evictor.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_LE(tier.element_cache().size(), 2u);
}

TEST_F(TierFixture, EvictionListenerReentersReplicatorDuringDelayedInsert) {
  // A one-entry cache makes every pump-driven insert displace the previous
  // entry, so the eviction listener (running under the CACHE lock) calls
  // DelayedReplicator::cancel (taking the REPLICATOR lock) while that same
  // replicator is mid-pump.  This is the cache → replicator order of
  // tools/lock_hierarchy.txt exercised from inside the replicator's own
  // insert path: if pump ever held its mutex across cache_->insert, the
  // reentrant cancel would self-deadlock right here.
  TierConfig config = tier_config();
  config.cache.max_entries = 1;
  EdgeCacheTier tier(config);
  auto cert = current_cert();

  ASSERT_TRUE(tier.fetch_through(*client_flow, server_ep, oid(), cert,
                                 "index.html")
                  .is_ok());
  ASSERT_EQ(tier.replicator().pending(), 1u);
  ASSERT_EQ(tier.element_cache().size(), 1u);

  auto stats = tier.run_delayed_pulls(*client_flow);
  // Both siblings were pulled; each insert displaced the previous entry and
  // fired the listener with the cache lock held.
  EXPECT_EQ(stats.elements_pulled, 2u);
  EXPECT_EQ(stats.elements_failed, 0u);
  EXPECT_EQ(tier.replicator().pending(), 0u);
  EXPECT_EQ(tier.element_cache().size(), 1u);
  EXPECT_EQ(
      registry.counter("cache.evictions", {{"reason", "capacity"}}).value(),
      2u);
}

TEST_F(TierFixture, ConcurrentPumpAndEvictionKeepsLockOrder) {
  // TSan-exercised variant: pumps (replicator inserting into the cache),
  // fills (cache inserting + scheduling) and explicit evictions (listener
  // cancelling into the replicator) race on a one-entry cache.  Any lock
  // nesting that disagrees with cache → replicator shows up as a TSan
  // deadlock/race report or a hang under the tsan lane.
  TierConfig config = tier_config();
  config.cache.max_entries = 1;
  EdgeCacheTier tier(config);
  auto cert = current_cert();

  const std::vector<std::string> names = {"index.html", "logo.gif",
                                          "story.txt"};
  constexpr int kIters = 25;
  auto puller_flow = net.open_flow(client_host);
  auto filler_flow = net.open_flow(client_host);
  std::atomic<int> errors{0};

  std::thread filler([&] {
    for (int it = 0; it < kIters; ++it) {
      auto result = tier.fetch_through(*filler_flow, server_ep, oid(), cert,
                                       names[it % names.size()]);
      if (!result.is_ok()) errors.fetch_add(1);
    }
  });
  std::thread puller([&] {
    for (int it = 0; it < kIters; ++it) {
      tier.run_delayed_pulls(*puller_flow);
      std::this_thread::yield();
    }
  });
  std::thread evictor([&] {
    for (int it = 0; it < kIters; ++it) {
      const auto& name = names[it % names.size()];
      tier.element_cache().erase(CacheKey{oid(), name, cert.find(name)->sha1});
      std::this_thread::yield();
    }
  });
  filler.join();
  puller.join();
  evictor.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_LE(tier.element_cache().size(), 1u);
}

// --- Proxy integration ------------------------------------------------------

TEST_F(TierFixture, CertificateVerifiedOncePerDocumentNotPerElement) {
  // Without binding caching, every element fetch re-binds the replica — but
  // the integrity certificate's RSA verification must happen once per
  // (document, certificate), with the memo answering the rest.
  ProxyConfig pc = proxy_config(/*identity=*/false);
  pc.registry = &registry;
  GlobeDocProxy proxy(*client_flow, pc);

  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());
  ASSERT_TRUE(proxy.fetch(object_name, "logo.gif").is_ok());
  ASSERT_TRUE(proxy.fetch(object_name, "story.txt").is_ok());

  EXPECT_EQ(registry.counter("proxy.cert_verifies").value(), 1u);
  EXPECT_EQ(registry.counter("proxy.cert_verify_memo_hits").value(), 2u);
}

TEST_F(TierFixture, CertVerifyProbeShowsMemoHitsCostOnlyProbeOverhead) {
  // The cert_verify probe wraps hit and miss alike, so the cost profile —
  // not just the counters — proves the memo works: only the first bind
  // descends into rsa_verify, and the two memo hits charge nothing beyond
  // the fixed probe bookkeeping.  A step clock (every read advances 100 ns)
  // makes the arithmetic exact.
  obs::ProfileRegistry profile;
  std::uint64_t clock_ns = 0;
  profile.set_clocks([&clock_ns] { return clock_ns += 100; },
                     [&clock_ns] { return clock_ns += 100; });
  ProxyConfig pc = proxy_config(/*identity=*/false);
  pc.registry = &registry;
  pc.profile = &profile;
  GlobeDocProxy proxy(*client_flow, pc);

  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());
  ASSERT_TRUE(proxy.fetch(object_name, "logo.gif").is_ok());
  ASSERT_TRUE(proxy.fetch(object_name, "story.txt").is_ok());

  obs::ProbeStat cert, cert_rsa;
  for (const obs::ProfileSample& s : profile.snapshot().samples) {
    if (s.leaf == "cert_verify") cert = s.stat;
    if (s.leaf == "rsa_verify" &&
        s.stack.find(";cert_verify;") != std::string::npos) {
      cert_rsa = s.stat;
    }
  }
  // Every bind passed through the probe; only the first paid the RSA.
  EXPECT_EQ(cert.calls, 3u);
  EXPECT_EQ(cert_rsa.calls, 1u);
  // Self time is pure probe overhead.  A childless probe spans 2 clock
  // reads (exit wall + exit cpu): each memo hit costs 200 ns.  The miss
  // additionally brackets its rsa_verify child's 2 entry reads plus its
  // own 2 exit reads — 400 ns of self time.  400 + 2 * 200 = 800: the
  // memo hits sit at the floor, all real crypto lives in the child.
  EXPECT_EQ(cert.self_cpu_ns, 800u);
  EXPECT_GT(cert_rsa.cpu_ns, 0u);
}

TEST_F(TierFixture, MemoMissesWhenCertificateBytesChange) {
  ProxyConfig pc = proxy_config(/*identity=*/false);
  pc.registry = &registry;
  GlobeDocProxy proxy(*client_flow, pc);
  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());

  // A refreshed certificate has different bytes: full verification again.
  publish_flow->set_time(client_flow->now());
  ASSERT_TRUE(owner
                  ->refresh_replicas(*publish_flow, client_flow->now(),
                                     util::seconds(3600))
                  .is_ok());
  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());
  EXPECT_EQ(registry.counter("proxy.cert_verifies").value(), 2u);
}

TEST_F(TierFixture, DecoratedUrlDuplicatesShareOneCacheEntry) {
  EdgeCacheTier tier(tier_config());
  ProxyConfig pc = proxy_config();
  pc.edge_cache = &tier;
  GlobeDocProxy proxy(*client_flow, pc);

  const std::size_t before = elements_served("srv-1");
  auto v1 = proxy.fetch_url("http://globe/news.vu.nl/logo.gif?v=1");
  auto v2 = proxy.fetch_url("http://globe/news.vu.nl/logo.gif?v=2&cb=99");
  auto frag = proxy.fetch_url("globe://news.vu.nl/logo.gif#top");
  ASSERT_TRUE(v1.is_ok());
  ASSERT_TRUE(v2.is_ok());
  ASSERT_TRUE(frag.is_ok());
  // Decoration canonicalized away: one upstream fetch, the rest are hits.
  EXPECT_TRUE(v2->metrics.served_from_edge_cache);
  EXPECT_TRUE(frag->metrics.served_from_edge_cache);
  EXPECT_EQ(elements_served("srv-1"), before + 1);
}

TEST_F(TierFixture, ProxyFallsBackToDirectPathWithoutTier) {
  ProxyConfig pc = proxy_config();
  GlobeDocProxy proxy(*client_flow, pc);  // edge_cache == nullptr
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok());
  EXPECT_FALSE(result->metrics.served_from_edge_cache);
}

}  // namespace
}  // namespace globe::cache
