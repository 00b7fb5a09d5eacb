#include "net/simnet.hpp"

#include <algorithm>
#include <stdexcept>

namespace globe::net {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Result;
using util::SimDuration;
using util::SimTime;

namespace {

std::uint64_t link_key(HostId a, HostId b) {
  std::uint32_t lo = std::min(a.value, b.value);
  std::uint32_t hi = std::max(a.value, b.value);
  return std::uint64_t{hi} << 32 | lo;
}

SimDuration transfer_time(std::size_t bytes, const LinkParams& link) {
  double seconds = static_cast<double>(bytes) / link.bandwidth_bytes_per_s;
  return link.latency +
         static_cast<SimDuration>(seconds * static_cast<double>(util::kSecond));
}

const LinkParams& loopback_link() {
  static const LinkParams kLoopback{util::micros(50), 100e6};
  return kLoopback;
}

}  // namespace

HostId SimNet::add_host(HostParams params) {
  HostId id{static_cast<std::uint32_t>(hosts_.size())};
  hosts_.push_back(HostState{std::move(params),
                             std::make_unique<util::Mutex>(),
                             {},
                             0});
  return id;
}

const HostParams& SimNet::host(HostId id) const {
  if (id.value >= hosts_.size()) throw std::out_of_range("SimNet::host");
  return hosts_[id.value].params;
}

void SimNet::set_link(HostId a, HostId b, LinkParams params) {
  if (a.value >= hosts_.size() || b.value >= hosts_.size()) {
    throw std::out_of_range("SimNet::set_link: unknown host");
  }
  links_[{std::min(a.value, b.value), std::max(a.value, b.value)}] = params;
}

const LinkParams& SimNet::link(HostId a, HostId b) const {
  auto it = links_.find({std::min(a.value, b.value), std::max(a.value, b.value)});
  if (it != links_.end()) return it->second;
  if (a == b) return loopback_link();
  return default_link_;
}

void SimNet::set_link_down(HostId a, HostId b, bool down) {
  if (down) {
    down_links_.insert(link_key(a, b));
  } else {
    down_links_.erase(link_key(a, b));
  }
}

void SimNet::bind(const Endpoint& ep, MessageHandler handler) {
  util::LockGuard lock(bind_mutex_);
  if (ep.host.value >= hosts_.size()) {
    throw std::out_of_range("SimNet::bind: unknown host");
  }
  auto [it, inserted] = handlers_.emplace(ep, std::move(handler));
  (void)it;
  if (!inserted) {
    throw std::logic_error("SimNet::bind: endpoint already bound: " + ep.to_string());
  }
}

void SimNet::unbind(const Endpoint& ep) {
  util::LockGuard lock(bind_mutex_);
  handlers_.erase(ep);
}

std::unique_ptr<SimFlow> SimNet::open_flow(HostId host, SimTime start) {
  if (host.value >= hosts_.size()) {
    throw std::out_of_range("SimNet::open_flow: unknown host");
  }
  return std::unique_ptr<SimFlow>(new SimFlow(this, host, start));
}

SimTime SimNet::reserve_cpu(HostState& hs, SimTime arrival, SimDuration duration) {
  // Bound the bookkeeping: forget reservations that ended long before this
  // arrival (no later flow in a time-ordered workload can reach back).
  if (hs.reservations.size() > 10'000) {
    SimTime cutoff = arrival > util::seconds(300) ? arrival - util::seconds(300) : 0;
    auto it = hs.reservations.begin();
    while (it != hs.reservations.end() && it->second < cutoff) {
      it = hs.reservations.erase(it);
    }
  }

  SimTime candidate = arrival;
  // Start scanning from the last reservation beginning at or before the
  // candidate, since it may still overlap it.
  auto it = hs.reservations.upper_bound(candidate);
  if (it != hs.reservations.begin()) --it;
  for (; it != hs.reservations.end(); ++it) {
    if (it->second <= candidate) continue;          // ends before us: skip
    if (it->first >= candidate + duration) break;   // gap is big enough
    candidate = it->second;                         // push past this booking
  }
  hs.reservations.emplace(candidate, candidate + duration);
  hs.busy_until = std::max(hs.busy_until, candidate + duration);
  return candidate;
}

SimTime SimNet::horizon() const {
  SimTime latest = 0;
  for (const auto& host : hosts_) {
    util::LockGuard lock(*host.lock);
    latest = std::max(latest, host.busy_until);
  }
  return latest;
}

std::unique_ptr<SimFlow> SimNet::open_quiescent_flow(HostId host,
                                                     util::SimDuration guard) {
  return open_flow(host, horizon() + guard);
}

namespace {

/// ServerContext implementation: all time accounting flows through a nested
/// SimFlow anchored at the serving host.
class SimServerContext final : public ServerContext {
 public:
  explicit SimServerContext(SimFlow& server_flow) : flow_(server_flow) {}

  SimTime now() const override { return flow_.now(); }
  void charge(CpuOp op, std::uint64_t amount) override { flow_.charge(op, amount); }
  HostId local_host() const override { return flow_.local_host(); }
  Transport& transport() override { return flow_; }

 private:
  SimFlow& flow_;
};

}  // namespace

Result<Bytes> SimNet::deliver(SimFlow& flow, const Endpoint& ep, BytesView request) {
  if (ep.host.value >= hosts_.size()) {
    return Result<Bytes>(ErrorCode::kUnavailable, "no such host " + ep.to_string());
  }
  if (down_links_.count(link_key(flow.local_host(), ep.host)) > 0) {
    return Result<Bytes>(ErrorCode::kUnavailable, "link down to " + ep.to_string());
  }
  MessageHandler handler;
  {
    util::LockGuard lock(bind_mutex_);
    auto it = handlers_.find(ep);
    if (it == handlers_.end()) {
      // Model the RST coming back: one round trip wasted.
      const LinkParams& l = link(flow.local_host(), ep.host);
      flow.advance(2 * l.latency);
      return Result<Bytes>(ErrorCode::kUnavailable,
                           "nothing bound at " + ep.to_string());
    }
    handler = it->second;
  }

  const LinkParams& l = link(flow.local_host(), ep.host);

  // Connection establishment: one extra round trip on first contact.
  if (flow.connected_.insert(ep).second) {
    flow.advance(2 * l.latency);
  }

  SimTime arrival = flow.now() + transfer_time(request.size() + kWireOverhead, l);

  HostState& hs = hosts_[ep.host.value];
  Result<Reply> result(ErrorCode::kInternal, "handler did not run");
  SimTime t_done;

  // Execute the handler as if it started at arrival to learn its service
  // duration (request overhead + charges + nested waits), then book the
  // earliest CPU gap of that length.  Timestamps observed inside the
  // handler can be earlier than the booked slot by the queueing delay;
  // that skew is negligible against certificate validity scales.
  //
  // The handler runs WITHOUT the host lock: handlers make nested cross-host
  // calls, and holding per-host locks across them builds A->B / B->A lock
  // cycles.  One-request-at-a-time serialization is modeled in virtual time
  // by reserve_cpu; handler state carries its own locks.
  SimFlow server_flow(this, ep.host, arrival);
  server_flow.charge(CpuOp::kRequest, 1);
  SimServerContext ctx(server_flow);
  try {
    result = handler(ctx, request);
  } catch (const std::exception& e) {
    result = Result<Reply>(ErrorCode::kInternal,
                           std::string("handler threw: ") + e.what());
  }
  SimDuration service = server_flow.now() - arrival;
  {
    util::LockGuard host_lock(*hs.lock);
    SimTime start = reserve_cpu(hs, arrival, service);
    t_done = start + service;
  }

  std::size_t resp_size =
      (result.is_ok() ? result->size() : result.status().message().size()) +
      kWireOverhead;
  flow.set_time(t_done + transfer_time(resp_size, l));
  if (!result.is_ok()) return result.status();
  return std::move(*result).flatten();
}

Result<Bytes> SimFlow::call(const Endpoint& ep, BytesView request) {
  return net_->deliver(*this, ep, request);
}

void SimFlow::charge(CpuOp op, std::uint64_t amount) {
  SimDuration cost = net_->host(host_).cpu.cost(op, amount);
  now_ += cost;
  client_cpu_ += cost;
}

}  // namespace globe::net
