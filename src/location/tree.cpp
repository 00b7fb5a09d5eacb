#include "location/tree.hpp"

#include <algorithm>

#include "util/serial.hpp"

namespace globe::location {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

void write_endpoint(util::Writer& w, const net::Endpoint& ep) {
  w.u32(ep.host.value);
  w.u16(ep.port);
}

net::Endpoint read_endpoint(util::Reader& r) {
  net::Endpoint ep;
  ep.host.value = r.u32();
  ep.port = r.u16();
  return ep;
}

struct OidEndpoint {
  Bytes oid;
  net::Endpoint address;
};

Bytes encode_oid_endpoint(BytesView oid, const net::Endpoint& ep) {
  util::Writer w;
  w.bytes(oid);
  write_endpoint(w, ep);
  return w.take();
}

OidEndpoint decode_oid_endpoint(BytesView payload) {
  util::Reader r(payload);
  OidEndpoint out;
  out.oid = r.bytes();
  out.address = read_endpoint(r);
  r.expect_end();
  return out;
}

struct OidChild {
  Bytes oid;
  std::string child;
};

Bytes encode_oid_child(BytesView oid, const std::string& child) {
  util::Writer w;
  w.bytes(oid);
  w.str(child);
  return w.take();
}

OidChild decode_oid_child(BytesView payload) {
  util::Reader r(payload);
  OidChild out;
  out.oid = r.bytes();
  out.child = r.str();
  r.expect_end();
  return out;
}

}  // namespace

Bytes LookupReply::serialize() const {
  util::Writer w;
  w.u8(found ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(addresses.size()));
  for (const auto& a : addresses) write_endpoint(w, a);
  w.u8(has_parent ? 1 : 0);
  write_endpoint(w, parent);
  return w.take();
}

Result<LookupReply> LookupReply::parse(BytesView data) {
  try {
    util::Reader r(data);
    LookupReply reply;
    reply.found = r.u8() != 0;
    std::uint32_t n = util::checked_count(
        r.u32(), static_cast<std::uint32_t>(kMaxLookupAddresses));
    reply.addresses.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) reply.addresses.push_back(read_endpoint(r));
    reply.has_parent = r.u8() != 0;
    reply.parent = read_endpoint(r);
    r.expect_end();
    return reply;
  } catch (const util::SerialError& e) {
    return Result<LookupReply>(ErrorCode::kProtocol, e.what());
  }
}

LocationNode::LocationNode(std::string domain, bool is_site,
                           obs::MetricsRegistry* registry)
    : domain_(std::move(domain)), is_site_(is_site) {
  if (registry == nullptr) registry = &obs::global_registry();
  obs::Labels labels{{"domain", domain_}};
  lookups_counter_ = &registry->counter("location.node.lookups", labels);
  lookup_hits_ = &registry->counter("location.node.lookup_hits", labels);
  inserts_counter_ = &registry->counter("location.node.inserts", labels);
  removes_counter_ = &registry->counter("location.node.removes", labels);
}

void LocationNode::set_parent(const net::Endpoint& parent) {
  has_parent_ = true;
  parent_ = parent;
}

void LocationNode::add_child(const std::string& child_domain,
                             const net::Endpoint& child) {
  children_[child_domain] = child;
}

void LocationNode::register_with(rpc::ServiceDispatcher& dispatcher) {
  auto bindm = [&](std::uint16_t method,
                   Result<Bytes> (LocationNode::*fn)(net::ServerContext&, BytesView)) {
    dispatcher.register_method(rpc::kLocationService, method,
                               [this, fn](net::ServerContext& ctx, BytesView payload) {
                                 return (this->*fn)(ctx, payload);
                               });
  };
  bindm(kLookup, &LocationNode::handle_lookup);
  bindm(kInsert, &LocationNode::handle_insert);
  bindm(kRemove, &LocationNode::handle_remove);
  bindm(kInsertPointer, &LocationNode::handle_insert_pointer);
  bindm(kRemovePointer, &LocationNode::handle_remove_pointer);
}

std::size_t LocationNode::records_stored() const {
  util::LockGuard lock(mutex_);
  return is_site_ ? addresses_.size() : pointers_.size();
}

Result<std::vector<net::Endpoint>> LocationNode::resolve_down(net::ServerContext& ctx,
                                                              const Bytes& oid) {
  std::vector<std::string> targets;
  {
    util::LockGuard lock(mutex_);
    auto it = pointers_.find(oid);
    if (it != pointers_.end()) {
      targets.assign(it->second.begin(), it->second.end());
    }
  }
  std::vector<net::Endpoint> all;
  for (const auto& child_name : targets) {
    auto cit = children_.find(child_name);
    if (cit == children_.end()) continue;  // stale pointer to removed child
    util::Writer q;
    q.bytes(oid);
    rpc::RpcClient client(ctx.transport(), cit->second);
    auto raw = client.call(rpc::kLocationService, kLookup, q.buffer());
    if (!raw.is_ok()) continue;  // child down: best effort
    auto reply = LookupReply::parse(*raw);
    if (reply.is_ok() && reply->found) {
      all.insert(all.end(), reply->addresses.begin(), reply->addresses.end());
    }
  }
  return all;
}

Result<Bytes> LocationNode::handle_lookup(net::ServerContext& ctx, BytesView payload) {
  util::Reader r(payload);
  Bytes oid = r.bytes();
  r.expect_end();

  LookupReply reply;
  bool need_down = false;
  {
    util::LockGuard lock(mutex_);
    if (is_site_) {
      auto it = addresses_.find(oid);
      if (it != addresses_.end() && !it->second.empty()) {
        reply.found = true;
        reply.addresses.assign(it->second.begin(), it->second.end());
      }
    } else {
      need_down = pointers_.count(oid) > 0;
    }
    reply.has_parent = has_parent_;
    reply.parent = parent_;
  }
  if (need_down) {
    auto down = resolve_down(ctx, oid);
    if (down.is_ok() && !down->empty()) {
      reply.found = true;
      reply.addresses = std::move(*down);
    }
  }
  lookups_counter_->inc();
  if (reply.found) lookup_hits_->inc();
  return reply.serialize();
}

Result<Bytes> LocationNode::handle_insert(net::ServerContext& ctx, BytesView payload) {
  if (!is_site_) {
    return Result<Bytes>(ErrorCode::kInvalidArgument,
                         "contact addresses are stored at site nodes only");
  }
  const auto req = decode_oid_endpoint(payload);

  bool first_for_oid;
  {
    util::LockGuard lock(mutex_);
    auto& set = addresses_[req.oid];
    // Without this cap a node could accumulate more addresses than
    // LookupReply::parse accepts and every compliant client would start
    // rejecting its replies.
    if (set.size() >= kMaxLookupAddresses && set.count(req.address) == 0) {
      return Result<Bytes>(ErrorCode::kInvalidArgument,
                           "object already has " +
                               std::to_string(kMaxLookupAddresses) +
                               " registered addresses");
    }
    first_for_oid = set.empty();
    set.insert(req.address);
  }
  inserts_counter_->inc();
  if (first_for_oid && has_parent_) {
    rpc::RpcClient parent(ctx.transport(), parent_);
    auto r = parent.call(rpc::kLocationService, kInsertPointer,
                         encode_oid_child(req.oid, domain_));
    if (!r.is_ok()) return r.status();
  }
  return Bytes{};
}

Result<Bytes> LocationNode::handle_remove(net::ServerContext& ctx, BytesView payload) {
  if (!is_site_) {
    return Result<Bytes>(ErrorCode::kInvalidArgument,
                         "contact addresses are stored at site nodes only");
  }
  const auto req = decode_oid_endpoint(payload);

  bool oid_gone = false;
  {
    util::LockGuard lock(mutex_);
    auto it = addresses_.find(req.oid);
    if (it == addresses_.end() || it->second.erase(req.address) == 0) {
      return Result<Bytes>(ErrorCode::kNotFound, "address not registered");
    }
    if (it->second.empty()) {
      addresses_.erase(it);
      oid_gone = true;
    }
  }
  removes_counter_->inc();
  if (oid_gone && has_parent_) {
    rpc::RpcClient parent(ctx.transport(), parent_);
    (void)parent.call(rpc::kLocationService, kRemovePointer,
                      encode_oid_child(req.oid, domain_));
  }
  return Bytes{};
}

Result<Bytes> LocationNode::handle_insert_pointer(net::ServerContext& ctx,
                                                  BytesView payload) {
  const auto req = decode_oid_child(payload);
  if (children_.count(req.child) == 0) {
    return Result<Bytes>(ErrorCode::kInvalidArgument,
                         "'" + req.child + "' is not a child of '" + domain_ + "'");
  }
  bool first_for_oid;
  {
    util::LockGuard lock(mutex_);
    auto& set = pointers_[req.oid];
    first_for_oid = set.empty();
    set.insert(req.child);
  }
  if (first_for_oid && has_parent_) {
    rpc::RpcClient parent(ctx.transport(), parent_);
    auto r = parent.call(rpc::kLocationService, kInsertPointer,
                         encode_oid_child(req.oid, domain_));
    if (!r.is_ok()) return r.status();
  }
  return Bytes{};
}

Result<Bytes> LocationNode::handle_remove_pointer(net::ServerContext& ctx,
                                                  BytesView payload) {
  const auto req = decode_oid_child(payload);
  bool oid_gone = false;
  {
    util::LockGuard lock(mutex_);
    auto it = pointers_.find(req.oid);
    if (it != pointers_.end()) {
      it->second.erase(req.child);
      if (it->second.empty()) {
        pointers_.erase(it);
        oid_gone = true;
      }
    }
  }
  if (oid_gone && has_parent_) {
    rpc::RpcClient parent(ctx.transport(), parent_);
    (void)parent.call(rpc::kLocationService, kRemovePointer,
                      encode_oid_child(req.oid, domain_));
  }
  return Bytes{};
}

LocationClient::LocationClient(net::Transport& transport, net::Endpoint local_site,
                               obs::MetricsRegistry* registry)
    : transport_(&transport), local_site_(local_site) {
  if (registry == nullptr) registry = &obs::global_registry();
  lookups_counter_ = &registry->counter("location.client.lookups");
  rings_histogram_ = &registry->histogram("location.client.rings",
                                          {1, 2, 3, 4, 5, 6, 8, 12, 16});
}

Result<std::vector<net::Endpoint>> LocationClient::lookup(BytesView oid) {
  lookups_counter_->inc();
  net::Endpoint node = local_site_;
  last_rings_ = 0;
  constexpr std::size_t kMaxRings = 16;
  while (last_rings_ < kMaxRings) {
    ++last_rings_;
    util::Writer q;
    q.bytes(oid);
    rpc::RpcClient client(*transport_, node);
    auto raw = client.call(rpc::kLocationService, kLookup, q.buffer());
    if (!raw.is_ok()) return raw.status();
    auto reply = LookupReply::parse(*raw);
    if (!reply.is_ok()) return reply.status();
    if (reply->found) {
      rings_histogram_->observe(static_cast<double>(last_rings_));
      return reply->addresses;
    }
    if (!reply->has_parent) {
      return Result<std::vector<net::Endpoint>>(ErrorCode::kNotFound,
                                                "OID unknown up to the root");
    }
    node = reply->parent;
  }
  return Result<std::vector<net::Endpoint>>(ErrorCode::kProtocol,
                                            "location tree too deep");
}

Status LocationClient::insert(const net::Endpoint& site, BytesView oid,
                              const net::Endpoint& address) {
  rpc::RpcClient client(*transport_, site);
  return client.call(rpc::kLocationService, kInsert, encode_oid_endpoint(oid, address))
      .status();
}

Status LocationClient::remove(const net::Endpoint& site, BytesView oid,
                              const net::Endpoint& address) {
  rpc::RpcClient client(*transport_, site);
  return client.call(rpc::kLocationService, kRemove, encode_oid_endpoint(oid, address))
      .status();
}

}  // namespace globe::location
