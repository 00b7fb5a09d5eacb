// What an operator sees of an object server, for tests that check hosting
// and serving through it: the OIDs its consistency report lists (what
// /replicaz shows) and its object_server.* series (what /metrics shows).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "globedoc/server.hpp"
#include "obs/metrics.hpp"

namespace globe::globedoc::testing {

/// True when `server`'s consistency report lists `oid`.
inline bool hosts(const ObjectServer& server, const Oid& oid) {
  const auto docs = server.consistency_report().docs;
  return std::any_of(docs.begin(), docs.end(), [&](const obs::DocConsistency& d) {
    return d.oid == oid.to_bytes();
  });
}

/// The replicas `server`'s consistency report lists.
inline std::size_t replica_count(const ObjectServer& server) {
  return server.consistency_report().docs.size();
}

/// The object_server.elements_served series of the server named `name`.
inline std::uint64_t elements_served(
    const std::string& name, obs::MetricsRegistry& registry = obs::global_registry()) {
  return registry.counter("object_server.elements_served", {{"server", name}}).value();
}

}  // namespace globe::globedoc::testing
