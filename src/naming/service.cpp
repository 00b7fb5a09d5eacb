#include "naming/service.hpp"

#include <stdexcept>

#include "util/serial.hpp"

namespace globe::naming {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Result;

Bytes NamingReply::serialize() const {
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.bytes(blob.serialize());
  return w.take();
}

Result<NamingReply> NamingReply::parse(BytesView data) {
  try {
    util::Reader r(data);
    NamingReply reply;
    std::uint8_t kind = r.u8();
    if (kind != 1 && kind != 2) {
      return Result<NamingReply>(ErrorCode::kProtocol, "bad reply kind");
    }
    reply.kind = static_cast<Kind>(kind);
    auto blob = SignedBlob::parse(r.bytes());
    if (!blob.is_ok()) return blob.status();
    reply.blob = std::move(*blob);
    r.expect_end();
    return reply;
  } catch (const util::SerialError& e) {
    return Result<NamingReply>(ErrorCode::kProtocol, e.what());
  }
}

ZoneAuthority::ZoneAuthority(std::string zone_name, crypto::RsaKeyPair keys)
    : zone_name_(std::move(zone_name)), keys_(std::move(keys)) {}

void ZoneAuthority::add_oid(const std::string& name, BytesView oid,
                            util::SimTime expires) {
  if (!name_in_zone(name, zone_name_)) {
    throw std::invalid_argument("add_oid: '" + name + "' outside zone '" +
                                zone_name_ + "'");
  }
  if (oid.size() != kOidSize) {
    throw std::invalid_argument("add_oid: OID must be 20 bytes");
  }
  OidRecord rec;
  rec.name = name;
  rec.oid.assign(oid.begin(), oid.end());
  rec.expires = expires;
  SignedBlob blob;
  blob.record = rec.serialize();
  blob.signature = crypto::rsa_sign_sha256(keys_.priv, blob.record);
  util::LockGuard lock(mutex_);
  oid_records_[name] = std::move(blob);
}

void ZoneAuthority::remove_name(const std::string& name) {
  util::LockGuard lock(mutex_);
  oid_records_.erase(name);
}

void ZoneAuthority::delegate(const std::string& child_zone,
                             const crypto::RsaPublicKey& child_key,
                             const net::Endpoint& child_server,
                             util::SimTime expires) {
  if (!name_in_zone(child_zone, zone_name_) || child_zone == zone_name_) {
    throw std::invalid_argument("delegate: '" + child_zone +
                                "' is not a proper child of '" + zone_name_ + "'");
  }
  DelegationRecord rec;
  rec.zone = child_zone;
  rec.child_public_key = child_key.serialize();
  rec.name_server = child_server;
  rec.expires = expires;
  SignedBlob blob;
  blob.record = rec.serialize();
  blob.signature = crypto::rsa_sign_sha256(keys_.priv, blob.record);
  util::LockGuard lock(mutex_);
  delegations_[child_zone] = std::move(blob);
}

Result<NamingReply> ZoneAuthority::lookup(const std::string& name) const {
  if (!name_in_zone(name, zone_name_)) {
    return Result<NamingReply>(ErrorCode::kNotFound,
                               "name outside zone " + zone_name_);
  }
  util::LockGuard lock(mutex_);
  if (auto it = oid_records_.find(name); it != oid_records_.end()) {
    NamingReply reply;
    reply.kind = NamingReply::Kind::kAnswer;
    reply.blob = it->second;
    return reply;
  }
  // Longest matching delegated suffix wins.
  const SignedBlob* best = nullptr;
  std::size_t best_len = 0;
  for (const auto& [suffix, blob] : delegations_) {
    if (name_in_zone(name, suffix) && suffix.size() >= best_len) {
      best = &blob;
      best_len = suffix.size();
    }
  }
  if (best != nullptr) {
    NamingReply reply;
    reply.kind = NamingReply::Kind::kReferral;
    reply.blob = *best;
    return reply;
  }
  return Result<NamingReply>(ErrorCode::kNotFound, "no record for " + name);
}

NamingServer::NamingServer(obs::MetricsRegistry* registry) {
  if (registry == nullptr) registry = &obs::global_registry();
  lookups_answer_ = &registry->counter("naming.server.lookups", {{"outcome", "answer"}});
  lookups_referral_ =
      &registry->counter("naming.server.lookups", {{"outcome", "referral"}});
  lookups_miss_ = &registry->counter("naming.server.lookups", {{"outcome", "miss"}});
  zone_key_requests_ = &registry->counter("naming.server.zone_key_requests");
}

void NamingServer::add_zone(std::shared_ptr<ZoneAuthority> zone) {
  util::LockGuard lock(mutex_);
  zones_[zone->zone()] = std::move(zone);
}

void NamingServer::register_with(rpc::ServiceDispatcher& dispatcher) {
  dispatcher.register_method(
      rpc::kNamingService, kLookup,
      [this](net::ServerContext& ctx, BytesView payload) {
        return handle_lookup(ctx, payload);
      });
  dispatcher.register_method(
      rpc::kNamingService, kZonePublicKey,
      [this](net::ServerContext& ctx, BytesView payload) {
        return handle_zone_key(ctx, payload);
      });
}

Result<Bytes> NamingServer::handle_lookup(net::ServerContext&, BytesView payload) {
  util::Reader r(payload);
  std::string zone = r.str();
  std::string name = r.str();
  r.expect_end();
  std::shared_ptr<ZoneAuthority> authority;
  {
    util::LockGuard lock(mutex_);
    auto it = zones_.find(zone);
    if (it == zones_.end()) {
      lookups_miss_->inc();
      return Result<Bytes>(ErrorCode::kNotFound, "zone not served here: " + zone);
    }
    authority = it->second;
  }
  auto reply = authority->lookup(name);
  if (!reply.is_ok()) {
    lookups_miss_->inc();
    return reply.status();
  }
  (reply->kind == NamingReply::Kind::kAnswer ? lookups_answer_
                                             : lookups_referral_)
      ->inc();
  return reply->serialize();
}

Result<Bytes> NamingServer::handle_zone_key(net::ServerContext&, BytesView payload) {
  util::Reader r(payload);
  std::string zone = r.str();
  r.expect_end();
  zone_key_requests_->inc();
  util::LockGuard lock(mutex_);
  auto it = zones_.find(zone);
  if (it == zones_.end()) {
    return Result<Bytes>(ErrorCode::kNotFound, "zone not served here: " + zone);
  }
  return it->second->public_key().serialize();
}

}  // namespace globe::naming
