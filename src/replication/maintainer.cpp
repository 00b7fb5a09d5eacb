#include "replication/maintainer.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace globe::replication {

namespace {

/// Buckets a refresh failure for the reason= label: did the wire fail, did
/// it take too long, or did a reachable source serve unverifiable state?
const char* failure_reason(util::ErrorCode code) {
  switch (code) {
    case util::ErrorCode::kTimeout: return "timeout";
    case util::ErrorCode::kUnavailable: return "transport";
    default: return "verification";
  }
}

}  // namespace

ReplicaMaintainer::ReplicaMaintainer(globedoc::ObjectServer& server,
                                     net::Transport& transport, Config config)
    : server_(&server), transport_(&transport), config_(config) {
  auto* registry = config_.registry != nullptr ? config_.registry
                                               : &obs::global_registry();
  checked_counter_ = &registry->counter("replication.maintainer.checked");
  refreshed_counter_ = &registry->counter("replication.maintainer.refreshed");
  failed_verification_ = &registry->counter("replication.maintainer.failed",
                                            {{"reason", "verification"}});
  failed_transport_ = &registry->counter("replication.maintainer.failed",
                                         {{"reason", "transport"}});
  failed_timeout_ = &registry->counter("replication.maintainer.failed",
                                       {{"reason", "timeout"}});
}

void ReplicaMaintainer::track(const globedoc::Oid& oid,
                              std::vector<net::Endpoint> sources,
                              std::uint64_t version,
                              util::SimTime earliest_expiry) {
  entries_[oid] = Entry{std::move(sources), version, earliest_expiry};
}

void ReplicaMaintainer::untrack(const globedoc::Oid& oid) { entries_.erase(oid); }

ReplicaMaintainer::TickReport ReplicaMaintainer::tick(util::SimTime now) {
  TickReport report;
  for (auto& [oid, entry] : entries_) {
    ++report.checked;
    if (entry.earliest_expiry > now + config_.refresh_margin) continue;

    bool refreshed = false;
    util::Status last_failure = util::Status::ok();
    for (const auto& source : entry.sources) {
      // Pull accepts any strictly newer, fully verified state.  Passing
      // version-1 tolerates sources at the same version re-signed with a
      // fresh window — re-installing an equal version is the refresh case.
      auto result = pull_replica(*transport_, source, oid, *server_,
                                 entry.version == 0 ? 0 : entry.version - 1);
      if (result.is_ok()) {
        entry.version = result->version;
        entry.earliest_expiry = result->earliest_expiry;
        refreshed = true;
        ++report.refreshed;
        break;
      }
      last_failure = result.status();
    }
    if (!refreshed) {
      ++report.failed;
      const char* reason = failure_reason(last_failure.code());
      switch (last_failure.code()) {
        case util::ErrorCode::kTimeout: failed_timeout_->inc(); break;
        case util::ErrorCode::kUnavailable: failed_transport_->inc(); break;
        default: failed_verification_->inc(); break;
      }
      // The event lands on the caller's open span, if any (the telemetry
      // demo runs each tick under one, so /tracez shows its failures).
      obs::emit_event(obs::EventLevel::kWarn, "replication", "refresh_failed",
                      oid.to_hex() + " reason=" + reason + ": " +
                          last_failure.to_string());
    }
  }
  checked_counter_->inc(report.checked);
  refreshed_counter_->inc(report.refreshed);
  return report;
}

}  // namespace globe::replication
