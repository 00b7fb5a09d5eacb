// Update storm: a master republishes every document at once and an
// 8-replica fleet converges by pulling.  A TelemetryAggregator scrapes and
// audits the fleet (obs/consistency.hpp) the whole time, so the numbers
// this bench reports — propagation-lag p50/p99 and time-to-convergence —
// are derived from the observatory itself, not from bench-side
// bookkeeping alone: convergence is "the first round where every replica
// is fresh".
//
// Emits update_storm.* gauges to a JSON artifact (argv[1]) for the
// perf-regression gate; everything here runs on the deterministic
// simulator, so the series are exact.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/paper_world.hpp"
#include "crypto/drbg.hpp"
#include "crypto/rsa.hpp"
#include "globedoc/owner.hpp"
#include "globedoc/server.hpp"
#include "net/simnet.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "replication/refresher.hpp"

using namespace globe;

namespace {

constexpr int kReplicas = 8;
constexpr int kDocs = 24;
constexpr util::SimTime kStorm = util::seconds(100);
constexpr util::SimDuration kPollPeriod = util::seconds(2);
constexpr util::SimDuration kAuditPeriod = util::seconds(2);
constexpr int kMaxRounds = 60;
// Per-tick pull budget: a real maintainer refreshes incrementally, so the
// fleet converges over several rounds and the audit actually witnesses
// the stale window (stale_peak > 0), not just the end state.
constexpr int kPullsPerTick = 4;

crypto::RsaKeyPair bench_key(std::uint64_t seed) {
  auto rng = crypto::HmacDrbg::from_seed(seed);
  return crypto::rsa_generate(512, rng);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "";

  net::SimNet net;
  net::HostId master_host = net.add_host({"master", net::CpuModel{}});
  net::HostId aggregator_host = net.add_host({"aggregator", net::CpuModel{}});
  net.set_default_link({util::millis(5), 1e6});

  // --- Master object server, reporting consistency on its dispatcher.
  obs::MetricsRegistry master_registry;
  globedoc::ObjectServer master("master", 7, &master_registry);
  rpc::ServiceDispatcher master_dispatcher;
  master.register_with(master_dispatcher);
  obs::TelemetryNode master_node(master_registry, "master", "object-server");
  master_node.set_consistency_source([&] { return master.consistency_report(); });
  master_node.register_with(master_dispatcher);
  net::Endpoint master_ep{master_host, 8000};
  net.bind(master_ep, master_dispatcher.handler());

  // --- The fleet: 8 replicas at staggered link latencies (10..150 ms).
  struct Replica {
    net::HostId host;
    std::unique_ptr<obs::MetricsRegistry> registry;
    std::unique_ptr<globedoc::ObjectServer> server;
    std::unique_ptr<rpc::ServiceDispatcher> dispatcher;
    std::unique_ptr<obs::TelemetryNode> node;
    net::Endpoint ep;
    std::unique_ptr<net::SimFlow> flow;
  };
  std::vector<Replica> fleet(kReplicas);
  for (int r = 0; r < kReplicas; ++r) {
    Replica& rep = fleet[r];
    std::string name = "replica-" + std::to_string(r + 1);
    rep.host = net.add_host({name, net::CpuModel{}});
    net.set_link(master_host, rep.host,
                 {util::millis(10 + 20 * static_cast<std::uint64_t>(r)), 1e6});
    rep.registry = std::make_unique<obs::MetricsRegistry>();
    rep.server = std::make_unique<globedoc::ObjectServer>(
        name, 100 + static_cast<std::uint64_t>(r), rep.registry.get());
    rep.dispatcher = std::make_unique<rpc::ServiceDispatcher>();
    rep.server->register_with(*rep.dispatcher);
    rep.node = std::make_unique<obs::TelemetryNode>(*rep.registry, name,
                                                    "object-server");
    globedoc::ObjectServer* server = rep.server.get();
    rep.node->set_consistency_source(
        [server] { return server->consistency_report(); });
    rep.node->register_with(*rep.dispatcher);
    rep.ep = net::Endpoint{rep.host, 8000};
    net.bind(rep.ep, rep.dispatcher->handler());
    rep.flow = net.open_flow(rep.host);
  }

  // --- 24 documents, each with its own 512-bit owner key, on the master.
  std::printf("update storm: %d docs, %d replicas\n", kDocs, kReplicas);
  std::vector<std::unique_ptr<globedoc::ObjectOwner>> owners;
  std::vector<globedoc::Oid> oids;
  for (int d = 0; d < kDocs; ++d) {
    globedoc::GlobeDocObject object(
        bench_key(5000 + static_cast<std::uint64_t>(d)));
    object.put_element({"index.html", "text/html",
                        bench::synthetic_content(
                            2048, static_cast<std::uint64_t>(d))});
    auto owner = std::make_unique<globedoc::ObjectOwner>(
        std::move(object), bench_key(6000 + static_cast<std::uint64_t>(d)));
    oids.push_back(owner->object().oid());
    util::Status hosted = master.install_replica_unchecked(
        owner->sign_and_snapshot(0, util::seconds(100000)), 0);
    if (!hosted.is_ok()) {
      std::fprintf(stderr, "master install failed: %s\n", hosted.to_string().c_str());
      return 1;
    }
    owners.push_back(std::move(owner));
  }

  // --- Seed every replica with a verified pull of every doc (epoch 1).
  std::uint64_t pulls = 0;
  std::vector<std::vector<std::uint64_t>> versions(
      kReplicas, std::vector<std::uint64_t>(kDocs, 0));
  for (int r = 0; r < kReplicas; ++r) {
    for (int d = 0; d < kDocs; ++d) {
      auto result = replication::pull_replica(*fleet[r].flow, master_ep,
                                              oids[d], *fleet[r].server, 0);
      if (!result.is_ok()) {
        std::fprintf(stderr, "seed pull failed: %s\n",
                     result.status().to_string().c_str());
        return 1;
      }
      versions[r][d] = result->version;
      ++pulls;
    }
  }

  // --- The aggregator scrapes and audits master + fleet.
  obs::TelemetryAggregator aggregator;
  aggregator.add_target(
      {"master", "object-server", master_ep, obs::AuditRole::kMaster});
  for (int r = 0; r < kReplicas; ++r) {
    aggregator.add_target({"replica-" + std::to_string(r + 1),
                           "object-server", fleet[r].ep,
                           obs::AuditRole::kReplica});
  }
  auto audit_flow = net.open_flow(aggregator_host);
  audit_flow->set_time(util::seconds(10));
  aggregator.scrape_round(*audit_flow);
  if (!aggregator.converged()) {
    std::fprintf(stderr, "fleet not converged after seeding\n");
    return 1;
  }

  // --- The storm: every owner re-signs at t=100s; the master absorbs all
  //     24 new states at once (epoch 2 fleet-wide).
  std::vector<std::uint64_t> storm_versions(kDocs, 0);
  for (int d = 0; d < kDocs; ++d) {
    auto state = owners[d]->sign_and_snapshot(kStorm, util::seconds(100000));
    storm_versions[d] = state.certificate.version();
    util::Status hosted = master.install_replica_unchecked(state, kStorm);
    if (!hosted.is_ok()) {
      std::fprintf(stderr, "master install failed: %s\n", hosted.to_string().c_str());
      return 1;
    }
  }

  // --- Replicas poll on staggered 2s ticks; the aggregator rounds every 2s.
  //     Propagation lag per (replica, doc) = install time - storm time.
  std::vector<double> lag_ms;
  double convergence_ms = 0;
  double stale_peak = 0;
  std::uint64_t audit_rounds = 0;
  for (int round = 0; round < kMaxRounds && convergence_ms == 0; ++round) {
    for (int r = 0; r < kReplicas; ++r) {
      util::SimTime tick = kStorm + util::millis(250 * static_cast<std::uint64_t>(r)) +
                           kPollPeriod * static_cast<std::uint64_t>(round + 1);
      fleet[r].flow->set_time(tick);
      int budget = kPullsPerTick;
      for (int d = 0; d < kDocs && budget > 0; ++d) {
        if (versions[r][d] >= storm_versions[d]) continue;
        --budget;
        auto result = replication::pull_replica(*fleet[r].flow, master_ep,
                                                oids[d], *fleet[r].server,
                                                versions[r][d]);
        ++pulls;
        if (result.is_ok() && result->installed) {
          versions[r][d] = result->version;
          lag_ms.push_back(util::to_millis(fleet[r].flow->now() - kStorm));
        }
      }
    }
    util::SimTime audit_at = kStorm + util::seconds(1) +
                             kAuditPeriod * static_cast<std::uint64_t>(round + 1);
    audit_flow->set_time(audit_at);
    aggregator.scrape_round(*audit_flow);
    ++audit_rounds;
    stale_peak = std::max(
        stale_peak,
        aggregator.self_registry().gauge("replication.stale_replicas").value());
    if (aggregator.converged()) {
      convergence_ms = util::to_millis(audit_at - kStorm);
    }
  }
  if (convergence_ms == 0) {
    std::fprintf(stderr, "fleet never converged\n");
    return 1;
  }

  double p50 = percentile(lag_ms, 0.50);
  double p99 = percentile(lag_ms, 0.99);
  std::printf("  propagation lag: p50 %.1f ms, p99 %.1f ms (%zu installs)\n",
              p50, p99, lag_ms.size());
  std::printf("  convergence (audit-observed): %.1f ms after the storm\n",
              convergence_ms);
  std::printf("  pulls %llu, audit rounds %llu, stale peak %.0f replicas\n",
              static_cast<unsigned long long>(pulls),
              static_cast<unsigned long long>(audit_rounds), stale_peak);

  obs::MetricsRegistry out;
  out.gauge("update_storm.docs").set(kDocs);
  out.gauge("update_storm.replicas").set(kReplicas);
  out.gauge("update_storm.propagation_p50_ms").set(p50);
  out.gauge("update_storm.propagation_p99_ms").set(p99);
  out.gauge("update_storm.convergence_ms").set(convergence_ms);
  out.gauge("update_storm.audit_rounds").set(static_cast<double>(audit_rounds));
  out.gauge("update_storm.pulls").set(static_cast<double>(pulls));
  out.gauge("update_storm.stale_peak").set(stale_peak);
  if (!out_path.empty()) {
    auto status = obs::write_bench_json(out_path, "update_storm", out.snapshot());
    if (!status.is_ok()) {
      std::fprintf(stderr, "write_bench_json: %s\n", status.to_string().c_str());
      return 1;
    }
  }
  return 0;
}
