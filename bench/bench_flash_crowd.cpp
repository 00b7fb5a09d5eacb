// Ablation A3 — flash-crowd behaviour: a single origin replica vs dynamic
// per-region replication (the motivating scenario of paper §1).
//
// A document hosted on the Amsterdam primary suddenly becomes popular in
// Paris.  Without replication every request crosses the WAN and queues at
// the origin; with the DynamicReplicator, a replica appears in Paris when
// the observed rate crosses the threshold and client latency collapses to
// LAN levels.  Every fetch runs the full secure pipeline (real signatures,
// real verification).
//
// The run is also watched the way an operator would watch it: the Paris
// proxies share a scrapable per-node registry, and a TelemetryAggregator
// polls it over the simulated WAN once per window.  The per-replica
// windowed p99 it derives from the proxy.fetch_ms bucket deltas
// (flash_crowd.replica_p99_ms) shows the same A3 story tail-first — the
// origin's p99 explodes under the crowd while the Paris replica's stays
// at LAN level the moment it exists.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/paper_world.hpp"
#include "cache/tier.hpp"
#include "obs/collector.hpp"
#include "obs/export.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "replication/coordinator.hpp"
#include "replication/trace.hpp"

using namespace globe;
using namespace globe::bench;

namespace {

struct BucketStats {
  double total_ms = 0;
  // Split of total_ms via the stitched cross-host trace of each fetch:
  // server_ms is time inside spans recorded ON the serving hosts (origin or
  // replica), the rest is network + proxy-side verification.  Under origin
  // overload the growth is in server_ms (CPU queueing), not the network.
  double server_ms = 0;
  std::size_t count = 0;
};

constexpr util::SimDuration kBucket = util::seconds(120);

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::min(rank == 0 ? 0 : rank - 1, samples.size() - 1)];
}

// Thundering herd against one hot element (PR 6): N clients behind a handful
// of edge proxies hammer herd.vu.nl/index.html inside a 10 s window, then a
// smaller browse wave walks the sibling assets.  With the shared
// EdgeCacheTier the herd collapses to ONE verified upstream fill per element
// (verified once, served many times) and the siblings arrive via
// delayed replication before the browse wave asks for them; without it every
// request is an origin round trip.
void run_thundering_herd(obs::MetricsRegistry& registry, bool fast) {
  const std::string kDoc = "herd.vu.nl";
  const std::vector<std::string> kAssets = {"style.css", "app.js", "logo.gif",
                                            "story.txt"};
  const std::size_t kElements = 1 + kAssets.size();
  constexpr std::size_t kEdgeProxies = 8;  // proxies sharing the node's tier
  constexpr double kHerdSeconds = 10.0;

  std::printf("\nThundering herd: shared edge-cache tier vs direct fetches\n\n");
  print_row({"clients", "cache", "origin_fetch", "per_element", "p99_ms",
             "mean_ms"});

  std::vector<std::size_t> herd_sizes = {1000, 10000};
  if (fast) herd_sizes = {1000};  // CI perf lane: one herd size is enough

  for (std::size_t clients : herd_sizes) {
    for (bool cache_on : {false, true}) {
      PaperWorld world;
      std::vector<globedoc::PageElement> elements;
      elements.push_back({"index.html", "text/html",
                          synthetic_content(8 * 1024, 600)});
      for (std::size_t i = 0; i < kAssets.size(); ++i) {
        elements.push_back({kAssets[i], "application/octet-stream",
                            synthetic_content(8 * 1024, 601 + i)});
      }
      world.add_object(kDoc, elements);

      std::unique_ptr<cache::EdgeCacheTier> tier;
      if (cache_on) {
        cache::TierConfig tc;
        tc.registry = &registry;
        tier = std::make_unique<cache::EdgeCacheTier>(tc);
      }

      // The origin's own series, as /metrics shows it (PaperWorld's object
      // server reports into the process-global registry).
      obs::Counter& origin_served = registry.counter(
          "object_server.elements_served", {{"server", "ginger"}});
      const std::uint64_t origin_before = origin_served.value();
      // Per-cell crypto attribution: the herd's proxies carry no profile
      // registry, so their probes land in the process-global one — reset it
      // after setup (publication signs/hashes are not part of the herd) and
      // read the cell's own serving-path deltas.
      obs::global_profile_registry().reset();
      const util::SimDuration gap = static_cast<util::SimDuration>(
          kHerdSeconds * static_cast<double>(util::kSecond) /
          static_cast<double>(clients));

      // One edge proxy per flow, all sharing the tier.  The clients are
      // walked on this thread in arrival order, client i on edge proxy
      // i % kEdgeProxies, so the fill order — and with it every cache count
      // and every booking of the origin's CPU — is the same on every run.
      // The first client misses and fills; every later one hits.  Real
      // concurrent coalescing is covered by the SingleFlight and tier tests.
      std::vector<std::unique_ptr<net::SimFlow>> flows;
      std::vector<std::unique_ptr<globedoc::GlobeDocProxy>> proxies;
      for (std::size_t t = 0; t < kEdgeProxies; ++t) {
        flows.push_back(world.topo.net.open_flow(world.topo.paris));
        auto pc = world.proxy_config_for(world.topo.paris);
        pc.cache_bindings = true;  // one bind per edge proxy, not per client
        pc.edge_cache = tier.get();
        proxies.push_back(
            std::make_unique<globedoc::GlobeDocProxy>(*flows.back(), pc));
      }
      std::vector<double> herd_ms;
      for (std::size_t i = 0; i < clients; ++i) {
        net::SimFlow& flow = *flows[i % kEdgeProxies];
        flow.set_time(
            std::max(flow.now(), static_cast<util::SimTime>(i) * gap));
        auto result = proxies[i % kEdgeProxies]->fetch(kDoc, "index.html");
        if (!result.is_ok()) {
          std::fprintf(stderr, "herd fetch failed (clients=%zu cache=%d): %s\n",
                       clients, cache_on ? 1 : 0,
                       result.status().to_string().c_str());
          std::exit(1);
        }
        herd_ms.push_back(util::to_millis(result->metrics.total_time));
      }

      // Background: delayed replication pulls the sibling assets while the
      // network is quiet, so the browse wave below finds them cached.
      if (tier) {
        auto pump_flow = world.topo.net.open_flow(world.topo.paris);
        while (tier->replicator().pending() > 0) {
          auto stats = tier->run_delayed_pulls(*pump_flow);
          if (stats.elements_pulled == 0 && stats.documents_done == 0 &&
              stats.elements_failed == 0) {
            break;
          }
        }
      }

      // Browse wave: a tenth of the crowd walks the page's assets.
      {
        auto flow = world.topo.net.open_flow(world.topo.paris);
        auto pc = world.proxy_config_for(world.topo.paris);
        pc.cache_bindings = true;
        pc.edge_cache = tier.get();
        globedoc::GlobeDocProxy proxy(*flow, pc);
        for (std::size_t i = 0; i < clients / 10; ++i) {
          auto result = proxy.fetch(kDoc, kAssets[i % kAssets.size()]);
          if (!result.is_ok()) {
            std::fprintf(stderr, "browse fetch failed: %s\n",
                         result.status().to_string().c_str());
            std::exit(1);
          }
        }
      }

      const std::size_t origin_fetches = origin_served.value() - origin_before;
      const double per_element = static_cast<double>(origin_fetches) /
                                 static_cast<double>(kElements);
      const double p99 = percentile(herd_ms, 0.99);
      double mean = 0;
      for (double ms : herd_ms) mean += ms;
      mean /= static_cast<double>(herd_ms.size());

      char fetches[32], per_el[32], p99_s[32], mean_s[32];
      std::snprintf(fetches, sizeof fetches, "%zu", origin_fetches);
      std::snprintf(per_el, sizeof per_el, "%.2f", per_element);
      std::snprintf(p99_s, sizeof p99_s, "%.2f", p99);
      std::snprintf(mean_s, sizeof mean_s, "%.2f", mean);
      print_row({std::to_string(clients), cache_on ? "on" : "off", fetches,
                 per_el, p99_s, mean_s});

      const obs::Labels labels = {
          {"clients", std::to_string(clients)},
          {"mode", cache_on ? "cache_on" : "cache_off"}};
      registry.gauge("flash_crowd.origin_fetches_per_element", labels)
          .set(per_element);
      registry.gauge("flash_crowd.origin_qps_per_element", labels)
          .set(per_element / kHerdSeconds);
      registry.gauge("flash_crowd.herd_p99_ms", labels).set(p99);
      registry.gauge("flash_crowd.herd_mean_ms", labels).set(mean);

      // Serving-path crypto breakdown for the cell.  Call counts are
      // deterministic (the perf gate pins them exactly: with the tier the
      // verifies collapse to ~one per element); cpu_ns is real host CPU
      // and machine-dependent, so the gate skips it.
      obs::ProfileSnapshot psnap = obs::global_profile_registry().snapshot();
      std::map<std::string, obs::ProbeStat> by_leaf;
      for (const auto& sample : psnap.samples) {
        obs::ProbeStat& agg = by_leaf[sample.leaf];
        agg.calls += sample.stat.calls;
        agg.cpu_ns += sample.stat.cpu_ns;
      }
      for (const char* probe :
           {"rsa_verify", "sha1", "cert_verify", "element_verify"}) {
        const obs::ProbeStat& stat = by_leaf[probe];
        obs::Labels probe_labels = labels;
        probe_labels.emplace_back("probe", probe);
        registry.gauge("flash_crowd.crypto_calls", probe_labels)
            .set(static_cast<double>(stat.calls));
        registry.gauge("flash_crowd.crypto_cpu_ns", probe_labels)
            .set(static_cast<double>(stat.cpu_ns));
      }

      if (cache_on && per_element > 2.0) {
        std::fprintf(stderr,
                     "cache-on herd cost the origin %.2f fetches/element "
                     "(bound: 2)\n",
                     per_element);
        std::exit(1);
      }
    }
  }
  std::printf(
      "\nWith the tier the whole herd costs the origin ~1 upstream fetch per\n"
      "element (coalesced fill + delayed sibling pull) and client p99 stays\n"
      "flat from 1k to 10k clients; without it origin load scales with the\n"
      "crowd.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string kDoc = "hot.vu.nl";

  // Usage: bench_flash_crowd [--fast] [out.json].  --fast is the CI perf
  // lane's configuration: a shorter crowd and a single herd size, compared
  // by tools/perf_diff.py against a baseline seeded with the same flag.
  bool fast = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      fast = true;
    } else {
      out_path = argv[i];
    }
  }

  // The flash crowd: Paris clients hammering one document.
  replication::TraceConfig base;
  base.documents = 1;
  base.regions = 1;
  base.duration = fast ? util::seconds(600) : util::seconds(1200);
  base.accesses_per_second = 0.5;
  base.seed = 7;
  replication::FlashCrowdConfig crowd;
  crowd.document = 0;
  crowd.hot_region = 0;
  crowd.start = fast ? util::seconds(120) : util::seconds(240);
  crowd.ramp = fast ? util::seconds(60) : util::seconds(120);
  crowd.hold = fast ? util::seconds(150) : util::seconds(400);
  // Peak ~70 req/s: close to the origin's service capacity, so the static
  // deployment queues visibly while the replicated one stays at LAN latency.
  crowd.peak_multiplier = 140.0;
  auto trace = replication::generate_flash_crowd(base, crowd);

  std::printf("Ablation A3: flash crowd from Paris (%zu requests over %.0fs)\n\n",
              trace.size(), util::to_seconds(base.duration));

  std::map<std::string, std::map<std::uint64_t, BucketStats>> results;
  std::map<std::uint64_t, std::size_t> replica_counts;
  // mode -> window index -> replica endpoint -> windowed p99 (ms), as the
  // aggregator derives it from scraped proxy.fetch_ms bucket deltas.
  std::map<std::string, std::map<std::uint64_t, std::map<std::string, double>>>
      replica_p99;
  std::map<std::string, std::uint64_t> scrape_errors;

  // Keep every trace so each fetch can be decomposed right after it runs.
  auto& collector = obs::global_trace_collector();
  collector.set_policy({/*keep_slower_than=*/0, /*keep_one_in=*/1});
  collector.clear();

  for (bool dynamic : {false, true}) {
    PaperWorld world;
    world.add_object(kDoc, {globedoc::PageElement{
                               "index.html", "text/html",
                               synthetic_content(20 * 1024, 99)}});

    // A Paris object server the replicator may use.
    globedoc::ObjectServer paris_server("paris-server", 1234);
    paris_server.authorize(world.owner(kDoc).credential_key());
    rpc::ServiceDispatcher paris_dispatcher;
    paris_server.register_with(paris_dispatcher);
    net::Endpoint paris_server_ep{world.topo.paris, 8000};
    world.topo.net.bind(paris_server_ep, paris_dispatcher.handler());

    auto owner_flow = world.topo.net.open_flow(world.topo.amsterdam_primary);
    replication::DynamicReplicator::Config rconfig;
    rconfig.replicate_above_rps = 3.0;
    rconfig.retire_below_rps = 0.2;
    rconfig.window = util::seconds(60);
    replication::DynamicReplicator replicator(
        world.owner(kDoc), *owner_flow,
        {{"paris", paris_server_ep, world.tree->endpoint("site-paris")}}, rconfig);

    const char* label = dynamic ? "dynamic" : "static";
    util::SimTime next_rebalance = util::seconds(30);

    // The telemetry plane riding along: every Paris proxy records into one
    // scrapable per-node registry, polled across the WAN from Amsterdam.
    obs::MetricsRegistry proxy_registry;
    obs::TelemetryNode proxy_telemetry(proxy_registry, "paris-proxy", "proxy");
    rpc::ServiceDispatcher telemetry_dispatcher;
    proxy_telemetry.register_with(telemetry_dispatcher);
    net::Endpoint telemetry_ep{world.topo.paris, 9100};
    world.topo.net.bind(telemetry_ep, telemetry_dispatcher.handler());
    obs::TelemetryAggregator aggregator;
    aggregator.add_target({"paris-proxy", "proxy", telemetry_ep});
    auto monitor_flow = world.topo.net.open_flow(world.topo.amsterdam_primary);

    // Scrape rounds land ~kBucket apart; the +30 s slack makes the trailing
    // window reliably span back to the previous round.
    auto scrape_window = [&](util::SimTime at, std::uint64_t window_index) {
      monitor_flow->set_time(std::max(monitor_flow->now(), at));
      aggregator.scrape_round(*monitor_flow);
      for (const obs::Labels& series : aggregator.series_labels("proxy.fetch_ms")) {
        auto delta = aggregator.windowed_histogram(
            "proxy.fetch_ms", series, kBucket + util::seconds(30));
        if (!delta || delta->count == 0) continue;
        for (const auto& [key, value] : series) {
          if (key == "replica") replica_p99[label][window_index][value] = delta->p99;
        }
      }
    };
    aggregator.scrape_round(*monitor_flow);  // baseline round at t~0
    util::SimTime next_scrape = kBucket;

    for (const auto& access : trace) {
      if (access.time >= next_scrape) {
        scrape_window(access.time, next_scrape / kBucket - 1);
        next_scrape += kBucket;
      }
      if (dynamic) {
        replicator.record_access("paris", access.time);
        if (access.time >= next_rebalance) {
          owner_flow->set_time(std::max(owner_flow->now(), access.time));
          if (!replicator.rebalance(access.time).is_ok()) return 1;
          next_rebalance = access.time + util::seconds(30);
        }
      }
      auto flow = world.topo.net.open_flow(world.topo.paris, access.time);
      auto proxy_config = world.proxy_config_for(world.topo.paris);
      proxy_config.registry = &proxy_registry;
      globedoc::GlobeDocProxy proxy(*flow, proxy_config);
      auto result = proxy.fetch(kDoc, "index.html");
      if (!result.is_ok()) {
        std::fprintf(stderr, "fetch failed: %s\n",
                     result.status().to_string().c_str());
        return 1;
      }
      std::uint64_t bucket = access.time / kBucket;
      auto& stats = results[label][bucket];
      stats.total_ms += util::to_millis(result->metrics.total_time);
      auto stitched = collector.find(result->metrics.trace_hi,
                                     result->metrics.trace_lo);
      if (!stitched || !stitched->complete) {
        std::fprintf(stderr, "fetch at t=%.0fs left no stitched trace\n",
                     util::to_seconds(access.time));
        return 1;
      }
      stats.server_ms += util::to_millis(obs::remote_span_total(stitched->root));
      stats.count += 1;
      if (dynamic) {
        replica_counts[bucket] = 1 + replicator.replica_count();
      }
    }
    // Close out the last window, then tally this mode's scrape health.
    if (next_scrape <= base.duration) {
      scrape_window(base.duration, next_scrape / kBucket - 1);
    }
    for (const obs::NodeStatus& node : aggregator.nodes()) {
      scrape_errors[label] += node.scrapes_failed;
    }
  }

  std::printf("Mean secure-fetch latency (ms) per %0.0fs window:\n\n",
              util::to_seconds(kBucket));
  auto& registry = obs::global_registry();
  print_row({"t_start_s", "req/s", "static", "dynamic", "replicas"});
  for (const auto& [bucket, stats] : results["static"]) {
    const auto& dyn = results["dynamic"][bucket];
    char t[32], rate[32], s_ms[32], d_ms[32];
    std::snprintf(t, sizeof t, "%llu",
                  static_cast<unsigned long long>(bucket * kBucket / util::kSecond));
    std::snprintf(rate, sizeof rate, "%.1f",
                  static_cast<double>(stats.count) / util::to_seconds(kBucket));
    std::snprintf(s_ms, sizeof s_ms, "%.1f",
                  stats.total_ms / static_cast<double>(stats.count));
    std::snprintf(d_ms, sizeof d_ms,
                  "%.1f", dyn.count ? dyn.total_ms / static_cast<double>(dyn.count) : 0);
    print_row({t, rate, s_ms, d_ms, std::to_string(replica_counts[bucket])});

    // Zero-padded window label so the JSON artifact sorts chronologically.
    char window[32];
    std::snprintf(window, sizeof window, "%05llu",
                  static_cast<unsigned long long>(bucket * kBucket / util::kSecond));
    registry.gauge("flash_crowd.requests_per_s", {{"window_s", window}})
        .set(static_cast<double>(stats.count) / util::to_seconds(kBucket));
    registry
        .gauge("flash_crowd.mean_ms", {{"mode", "static"}, {"window_s", window}})
        .set(stats.total_ms / static_cast<double>(stats.count));
    registry
        .gauge("flash_crowd.mean_ms", {{"mode", "dynamic"}, {"window_s", window}})
        .set(dyn.count ? dyn.total_ms / static_cast<double>(dyn.count) : 0);
    registry
        .gauge("flash_crowd.server_ms", {{"mode", "static"}, {"window_s", window}})
        .set(stats.server_ms / static_cast<double>(stats.count));
    registry
        .gauge("flash_crowd.server_ms", {{"mode", "dynamic"}, {"window_s", window}})
        .set(dyn.count ? dyn.server_ms / static_cast<double>(dyn.count) : 0);
    registry
        .gauge("flash_crowd.net_ms", {{"mode", "static"}, {"window_s", window}})
        .set((stats.total_ms - stats.server_ms) / static_cast<double>(stats.count));
    registry
        .gauge("flash_crowd.net_ms", {{"mode", "dynamic"}, {"window_s", window}})
        .set(dyn.count
                 ? (dyn.total_ms - dyn.server_ms) / static_cast<double>(dyn.count)
                 : 0);
    registry.gauge("flash_crowd.replicas", {{"window_s", window}})
        .set(static_cast<double>(replica_counts[bucket]));
    for (const char* mode : {"static", "dynamic"}) {
      for (const auto& [replica, p99] : replica_p99[mode][bucket]) {
        registry
            .gauge("flash_crowd.replica_p99_ms",
                   {{"mode", mode}, {"replica", replica}, {"window_s", window}})
            .set(p99);
      }
    }
  }

  std::printf("\nAggregator-observed windowed p99 (ms) per replica, dynamic "
              "deployment:\n\n");
  print_row({"t_start_s", "replica", "p99_ms"});
  for (const auto& [window_index, per_replica] : replica_p99["dynamic"]) {
    for (const auto& [replica, p99] : per_replica) {
      char t[32], p[32];
      std::snprintf(t, sizeof t, "%llu",
                    static_cast<unsigned long long>(window_index * kBucket /
                                                    util::kSecond));
      std::snprintf(p, sizeof p, "%.1f", p99);
      print_row({t, replica.c_str(), p});
    }
  }
  for (const auto& [mode, failed] : scrape_errors) {
    registry.gauge("flash_crowd.scrape_errors", {{"mode", mode}})
        .set(static_cast<double>(failed));
  }

  run_thundering_herd(registry, fast);

  if (out_path != nullptr) {
    auto status =
        obs::write_bench_json(out_path, "flash_crowd", registry.snapshot());
    if (!status.is_ok()) {
      std::fprintf(stderr, "write_bench_json: %s\n", status.to_string().c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", out_path);
  }

  std::printf(
      "\nPaper shape check: during the crowd the static deployment's latency\n"
      "grows (WAN + origin queueing) while the dynamic deployment converges\n"
      "to LAN-level latency once the Paris replica is created — replication\n"
      "on (untrusted) nearby servers is exactly what GlobeDoc enables.\n");
  return 0;
}
