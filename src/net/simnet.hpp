// Deterministic network simulator — the substitution for the paper's
// four-host WAN testbed (DESIGN.md §2).
//
// Model:
//  * Hosts carry an era-calibrated CpuModel.
//  * Links (pairwise, symmetric) have one-way latency and bandwidth; a
//    message of S bytes takes latency + S/bandwidth to arrive.
//  * Each flow (client session) owns a virtual clock.  An RPC advances it by
//    request delay, server queueing, server CPU (request overhead plus
//    whatever the handler charges), and response delay.
//  * Hosts serve one request at a time — in VIRTUAL time: each request books
//    the earliest free CPU interval on the serving host (reserve_cpu), so
//    flash crowds saturate a host exactly as a single-CPU server would.
//    Real-time handler execution is NOT serialized; handlers synchronize
//    their own state, and the per-host lock guards only the booking table.
//  * The first call a flow makes to an endpoint pays one extra round trip
//    (TCP connection establishment); reset_connections() forgets them.
//
// Determinism: with flows driven from one thread the simulation is exact
// and repeatable.  Flows may also run concurrently on a thread pool
// (flash-crowd benchmarks); results are then approximate in arrival order
// but time accounting stays consistent.  One usage rule in concurrent
// mode: topology mutations (add_host, set_link, set_link_down) are
// setup-time operations — they are not synchronized against in-flight
// flows and must only run while no flow is executing.  Handlers may nest
// cross-host calls freely: no per-host lock is held across handler
// execution, so nested calls cannot form lock cycles.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/address.hpp"
#include "net/cpu_model.hpp"
#include "net/transport.hpp"
#include "util/clock.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace globe::net {

struct HostParams {
  std::string name;
  CpuModel cpu;
};

struct LinkParams {
  util::SimDuration latency = util::millis(1);       // one-way
  double bandwidth_bytes_per_s = 1.25e6;             // 10 Mbit/s default
};

/// Framing + TCP/IP header overhead added to every message.
constexpr std::size_t kWireOverhead = 78;

class SimFlow;

class SimNet {
 public:
  SimNet() = default;
  SimNet(const SimNet&) = delete;
  SimNet& operator=(const SimNet&) = delete;

  HostId add_host(HostParams params);
  std::size_t host_count() const { return hosts_.size(); }
  const HostParams& host(HostId id) const;

  /// Sets the symmetric link between two hosts (a == b sets loopback).
  void set_link(HostId a, HostId b, LinkParams params);
  /// Link used when no explicit pair entry exists.
  void set_default_link(LinkParams params) { default_link_ = params; }
  const LinkParams& link(HostId a, HostId b) const;

  /// Marks a link (bidirectionally) down/up; calls across it fail with
  /// UNAVAILABLE.
  void set_link_down(HostId a, HostId b, bool down);

  /// Binds a handler at an endpoint; throws std::logic_error if taken.
  void bind(const Endpoint& ep, MessageHandler handler)
      GLOBE_EXCLUDES(bind_mutex_);
  void unbind(const Endpoint& ep) GLOBE_EXCLUDES(bind_mutex_);

  /// Opens a client flow originating at `host`, starting at virtual time
  /// `start`.  The flow keeps a pointer to this SimNet, which must outlive it.
  std::unique_ptr<SimFlow> open_flow(HostId host, util::SimTime start = 0);

  /// Latest busy-until watermark across all hosts: a flow opened at (or
  /// after) this time observes a quiescent network.  Benchmarks use this to
  /// take independent measurements (the paper sampled at 6-minute
  /// intervals) instead of queueing behind earlier runs.
  util::SimTime horizon() const;

  /// Opens a flow at horizon() + `guard` — a fresh, unloaded measurement.
  std::unique_ptr<SimFlow> open_quiescent_flow(
      HostId host, util::SimDuration guard = util::kSecond);

 private:
  friend class SimFlow;

  struct HostState {
    HostParams params;
    // Guards the CPU booking table below.  Held only inside reserve_cpu /
    // horizon — never across handler execution, so nested cross-host calls
    // cannot build lock-order cycles.  (Heap-allocated so HostState stays
    // movable inside hosts_.)
    std::unique_ptr<util::Mutex> lock = std::make_unique<util::Mutex>();
    // Reserved CPU intervals (start -> end).  A request arriving at time t
    // is served in the earliest gap of sufficient length at or after t, so
    // independent flows interleave between each other's RPCs and a host
    // saturates exactly when the offered CPU work exceeds capacity.
    std::map<util::SimTime, util::SimTime> reservations GLOBE_GUARDED_BY(*lock);
    util::SimTime busy_until GLOBE_GUARDED_BY(*lock) = 0;  // max reservation end
  };

  /// Books `duration` of CPU on `hs` no earlier than `arrival`; returns the
  /// start time.  Caller must hold the host lock.
  static util::SimTime reserve_cpu(HostState& hs, util::SimTime arrival,
                                   util::SimDuration duration)
      GLOBE_REQUIRES(*hs.lock);

  util::Result<util::Bytes> deliver(SimFlow& flow, const Endpoint& ep,
                                    util::BytesView request)
      GLOBE_EXCLUDES(bind_mutex_);

  std::vector<HostState> hosts_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, LinkParams> links_;
  std::unordered_set<std::uint64_t> down_links_;
  LinkParams default_link_;
  mutable util::Mutex bind_mutex_;
  std::unordered_map<Endpoint, MessageHandler> handlers_
      GLOBE_GUARDED_BY(bind_mutex_);
};

/// A client session with its own virtual clock.  Implements Transport.
class SimFlow final : public Transport {
 public:
  GLOBE_BLOCKING util::Result<util::Bytes> call(const Endpoint& ep,
                                                util::BytesView request) override;
  util::SimTime now() const override { return now_; }
  void charge(CpuOp op, std::uint64_t amount) override;
  HostId local_host() const override { return host_; }

  /// Advances the clock without CPU accounting (think time between requests).
  void advance(util::SimDuration d) { now_ += d; }
  void set_time(util::SimTime t) { now_ = t; }
  void advance_to(util::SimTime t) override {
    if (t > now_) now_ = t;
  }

  /// Forgets established connections: the next call to each endpoint pays
  /// the connection-setup round trip again.
  void reset_connections() { connected_.clear(); }

  /// Total CPU time this flow has charged client-side (diagnostics).
  util::SimDuration client_cpu() const { return client_cpu_; }

 private:
  friend class SimNet;
  SimFlow(SimNet* net, HostId host, util::SimTime start)
      : net_(net), host_(host), now_(start) {}

  SimNet* net_;
  HostId host_;
  util::SimTime now_;
  util::SimDuration client_cpu_ = 0;
  std::unordered_set<Endpoint> connected_;
};

}  // namespace globe::net
