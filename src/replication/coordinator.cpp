#include "replication/coordinator.hpp"

#include <stdexcept>

#include "obs/trace.hpp"

namespace globe::replication {

using util::Status;

DynamicReplicator::DynamicReplicator(globedoc::ObjectOwner& owner,
                                     net::Transport& transport,
                                     std::vector<Region> regions, Config config)
    : owner_(&owner), transport_(&transport), config_(config) {
  for (auto& region : regions) {
    RegionState state;
    state.config = std::move(region);
    regions_.emplace(state.config.name, std::move(state));
  }
  auto* registry = config_.registry != nullptr ? config_.registry
                                               : &obs::global_registry();
  replicas_created_ = &registry->counter("replication.replicas_created");
  replicas_retired_ = &registry->counter("replication.replicas_retired");
  replica_gauge_ = &registry->gauge("replication.dynamic_replicas");
}

void DynamicReplicator::prune(RegionState& state, util::SimTime now) const {
  util::SimTime cutoff = now > config_.window ? now - config_.window : 0;
  auto it = state.recent.begin();
  while (it != state.recent.end() && *it < cutoff) ++it;
  state.recent.erase(state.recent.begin(), it);
}

void DynamicReplicator::record_access(const std::string& region, util::SimTime now) {
  auto it = regions_.find(region);
  if (it == regions_.end()) {
    throw std::invalid_argument("unknown region: " + region);
  }
  it->second.recent.push_back(now);
  prune(it->second, now);
}

double DynamicReplicator::rate(const std::string& region, util::SimTime now) const {
  auto it = regions_.find(region);
  if (it == regions_.end()) return 0;
  // Count accesses still inside the window (const: no pruning).
  util::SimTime cutoff = now > config_.window ? now - config_.window : 0;
  std::size_t count = 0;
  for (util::SimTime t : it->second.recent) {
    if (t >= cutoff) ++count;
  }
  return static_cast<double>(count) / util::to_seconds(config_.window);
}

bool DynamicReplicator::has_replica(const std::string& region) const {
  auto it = regions_.find(region);
  return it != regions_.end() && it->second.replicated;
}

std::size_t DynamicReplicator::replica_count() const {
  std::size_t n = 0;
  for (const auto& [name, state] : regions_) {
    if (state.replicated) ++n;
  }
  return n;
}

Status DynamicReplicator::rebalance(util::SimTime now) {
  for (auto& [name, state] : regions_) {
    prune(state, now);
    double rps = static_cast<double>(state.recent.size()) /
                 util::to_seconds(config_.window);

    if (!state.replicated && rps >= config_.replicate_above_rps) {
      globedoc::ReplicaState snapshot =
          owner_->sign_and_snapshot(now, config_.certificate_ttl);
      Status created = owner_->publish_replica(*transport_,
                                               state.config.object_server,
                                               state.config.location_site, snapshot);
      if (!created.is_ok()) return created;
      state.replicated = true;
      replicas_created_->inc();
      obs::emit_event(obs::EventLevel::kInfo, "replication", "replica_created",
                      name + " at " + std::to_string(rps) + " rps");
    } else if (state.replicated && rps <= config_.retire_below_rps) {
      Status removed = owner_->unpublish_replica(
          *transport_, state.config.object_server, state.config.location_site);
      if (!removed.is_ok()) return removed;
      state.replicated = false;
      replicas_retired_->inc();
      obs::emit_event(obs::EventLevel::kInfo, "replication", "replica_retired",
                      name + " at " + std::to_string(rps) + " rps");
    }
  }
  replica_gauge_->set(static_cast<double>(replica_count()));
  return Status::ok();
}

}  // namespace globe::replication
