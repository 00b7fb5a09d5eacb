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

// The Insert/Remove payload: {oid, endpoint}.
Bytes encode_oid_endpoint(BytesView oid, const net::Endpoint& address) {
  util::Writer w;
  w.bytes(oid);
  net::write_endpoint(w, address);
  return w.take();
}

}  // namespace

Bytes LookupReply::serialize() const {
  util::Writer w;
  w.u8(found ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(addresses.size()));
  for (const auto& a : addresses) net::write_endpoint(w, a);
  w.u8(has_parent ? 1 : 0);
  net::write_endpoint(w, parent);
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
    for (std::uint32_t i = 0; i < n; ++i) {
      reply.addresses.push_back(net::read_endpoint(r));
    }
    reply.has_parent = r.u8() != 0;
    reply.parent = net::read_endpoint(r);
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
  dispatcher.register_method(rpc::kLocationService, kLookup,
                             [this](net::ServerContext& ctx, BytesView payload) {
                               return handle_lookup(ctx, payload);
                             });
  for (std::uint16_t method : {kInsert, kInsertPointer}) {
    dispatcher.register_method(
        rpc::kLocationService, method,
        [this, method](net::ServerContext& ctx, BytesView payload) {
          return handle_insert(ctx, method, payload);
        });
  }
  for (std::uint16_t method : {kRemove, kRemovePointer}) {
    dispatcher.register_method(
        rpc::kLocationService, method,
        [this, method](net::ServerContext& ctx, BytesView payload) {
          return handle_remove(ctx, method, payload);
        });
  }
}

std::size_t LocationNode::records_stored() const {
  util::LockGuard lock(mutex_);
  return records_.size();
}

Result<Bytes> LocationNode::handle_lookup(net::ServerContext& ctx, BytesView payload) {
  util::Reader r(payload);
  Bytes oid = r.bytes();
  r.expect_end();

  LookupReply reply;
  std::vector<net::Endpoint> down;  // children leading to a replica, by name
  {
    util::LockGuard lock(mutex_);
    auto it = records_.find(oid);
    if (it != records_.end()) {
      if (is_site_) {
        reply.addresses.assign(it->second.begin(), it->second.end());
      } else {
        down.reserve(it->second.size());
        for (const auto& [name, child] : children_) {
          if (it->second.count(child) > 0) down.push_back(child);
        }
      }
    }
    reply.has_parent = has_parent_;
    reply.parent = parent_;
  }
  // An interior node resolves downward, asking only endpoints of children_,
  // until the reply holds the kMaxLookupAddresses that LookupReply::parse
  // accepts.
  for (const auto& child : down) {
    if (reply.addresses.size() >= kMaxLookupAddresses) break;
    util::Writer q;
    q.bytes(oid);
    rpc::RpcClient client(ctx.transport(), child);
    auto raw = client.call(rpc::kLocationService, kLookup, q.buffer());
    if (!raw.is_ok()) continue;  // child down: best effort
    auto child_reply = LookupReply::parse(*raw);
    if (child_reply.is_ok() && child_reply->found) {
      const std::size_t take = std::min(child_reply->addresses.size(),
                                        kMaxLookupAddresses - reply.addresses.size());
      reply.addresses.insert(reply.addresses.end(), child_reply->addresses.begin(),
                             child_reply->addresses.begin() + static_cast<std::ptrdiff_t>(take));
    }
  }
  reply.found = !reply.addresses.empty();
  lookups_counter_->inc();
  if (reply.found) lookup_hits_->inc();
  return reply.serialize();
}

Result<LocationNode::Record> LocationNode::read_record(std::uint16_t method,
                                                       BytesView payload) const {
  const bool pointer = method == kInsertPointer || method == kRemovePointer;
  if (!pointer && !is_site_) {
    return Result<Record>(ErrorCode::kInvalidArgument,
                          "contact addresses are stored at site nodes only");
  }
  util::Reader r(payload);
  Record record;
  record.oid = r.bytes();
  if (!pointer) {
    record.entry = net::read_endpoint(r);
    r.expect_end();
    return record;
  }
  std::string child = r.str();
  r.expect_end();
  auto it = children_.find(child);
  if (it == children_.end()) {
    return Result<Record>(ErrorCode::kInvalidArgument,
                          "'" + child + "' is not a child of '" + domain_ + "'");
  }
  record.entry = it->second;
  return record;
}

Status LocationNode::tell_parent(net::ServerContext& ctx, std::uint16_t method,
                                 const Bytes& oid) const {
  if (!has_parent_) return Status();
  util::Writer w;
  w.bytes(oid);
  w.str(domain_);
  rpc::RpcClient parent(ctx.transport(), parent_);
  return parent.call(rpc::kLocationService, method, w.buffer()).status();
}

Result<Bytes> LocationNode::handle_insert(net::ServerContext& ctx, std::uint16_t method,
                                          BytesView payload) {
  const bool pointer = method == kInsertPointer;
  auto record = read_record(method, payload);
  if (!record.is_ok()) return record.status();

  bool first_for_oid;
  {
    util::LockGuard lock(mutex_);
    auto& set = records_[record->oid];
    // Without this cap a site could accumulate more addresses than
    // LookupReply::parse accepts and every compliant client would start
    // rejecting its replies.
    if (!pointer && set.size() >= kMaxLookupAddresses &&
        set.count(record->entry) == 0) {
      return Result<Bytes>(ErrorCode::kInvalidArgument,
                           "object already has " +
                               std::to_string(kMaxLookupAddresses) +
                               " registered addresses");
    }
    first_for_oid = set.empty();
    set.insert(record->entry);
  }
  if (!pointer) inserts_counter_->inc();
  if (first_for_oid) {
    Status up = tell_parent(ctx, kInsertPointer, record->oid);
    if (!up.is_ok()) return up;
  }
  return Bytes{};
}

Result<Bytes> LocationNode::handle_remove(net::ServerContext& ctx, std::uint16_t method,
                                          BytesView payload) {
  // A pointer this node does not hold, as from a domain that is not a
  // child, is removed quietly; an address must be registered.
  const bool pointer = method == kRemovePointer;
  auto record = read_record(method, payload);
  if (!record.is_ok()) return pointer ? Result<Bytes>(Bytes{}) : record.status();

  bool oid_gone = false;
  {
    util::LockGuard lock(mutex_);
    auto it = records_.find(record->oid);
    if (it == records_.end() || it->second.erase(record->entry) == 0) {
      if (pointer) return Bytes{};
      return Result<Bytes>(ErrorCode::kNotFound, "address not registered");
    }
    if (it->second.empty()) {
      records_.erase(it);
      oid_gone = true;
    }
  }
  if (!pointer) removes_counter_->inc();
  if (oid_gone) (void)tell_parent(ctx, kRemovePointer, record->oid);
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
