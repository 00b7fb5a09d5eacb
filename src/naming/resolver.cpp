#include "naming/resolver.hpp"

#include "naming/service.hpp"
#include "rpc/rpc.hpp"
#include "util/serial.hpp"

namespace globe::naming {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Result;

SecureResolver::SecureResolver(net::Transport& transport, net::Endpoint root_server,
                               crypto::RsaPublicKey anchor_key,
                               obs::MetricsRegistry* registry)
    : transport_(&transport), root_server_(root_server), anchor_(std::move(anchor_key)) {
  if (registry == nullptr) registry = &obs::global_registry();
  resolves_ok_ = &registry->counter("naming.resolves", {{"outcome", "ok"}});
  resolves_failed_ = &registry->counter("naming.resolves", {{"outcome", "error"}});
  cache_hits_ = &registry->counter("naming.cache_hits");
  referrals_ = &registry->counter("naming.referrals");
  signatures_counter_ = &registry->counter("naming.signatures_verified");
}

Result<Bytes> SecureResolver::resolve(const std::string& name) {
  if (cache_enabled_) {
    if (const auto* hit = cache_.find(name, transport_->now())) {
      cache_hits_->inc();
      return hit->value;
    }
  }
  auto result = resolve_walk(name);
  (result.is_ok() ? resolves_ok_ : resolves_failed_)->inc();
  return result;
}

Result<Bytes> SecureResolver::resolve_walk(const std::string& name) {
  std::string zone;  // start at the root
  net::Endpoint server = root_server_;
  crypto::RsaPublicKey zone_key = anchor_;

  // A referral chain longer than any sane zone tree indicates a loop.
  constexpr int kMaxReferrals = 16;
  for (int depth = 0; depth < kMaxReferrals; ++depth) {
    util::Writer q;
    q.str(zone);
    q.str(name);
    rpc::RpcClient client(*transport_, server);
    auto raw = client.call(rpc::kNamingService, kLookup, q.buffer());
    if (!raw.is_ok()) return raw.status();

    auto reply = NamingReply::parse(*raw);
    if (!reply.is_ok()) return reply.status();

    // Verify the zone signature over the record (one public-key op).
    transport_->charge(net::CpuOp::kRsaVerify, 1);
    signatures_counter_->inc();
    if (!crypto::rsa_verify_sha256(zone_key, reply->blob.record,
                                   reply->blob.signature)) {
      return Result<Bytes>(ErrorCode::kBadSignature,
                           "zone '" + zone + "' record signature invalid");
    }

    if (reply->kind == NamingReply::Kind::kAnswer) {
      auto rec = OidRecord::parse(reply->blob.record);
      if (!rec.is_ok()) return rec.status();
      if (rec->name != name) {
        return Result<Bytes>(ErrorCode::kWrongElement,
                             "answer names '" + rec->name + "', asked '" + name + "'");
      }
      if (rec->expires <= transport_->now()) {
        return Result<Bytes>(ErrorCode::kExpired, "OID record expired");
      }
      if (cache_enabled_) {
        cache_.put(name, rec->oid, rec->expires);
      }
      return rec->oid;
    }

    // Referral: descend into the child zone.
    referrals_->inc();
    auto del = DelegationRecord::parse(reply->blob.record);
    if (!del.is_ok()) return del.status();
    if (!name_in_zone(name, del->zone) || !name_in_zone(del->zone, zone) ||
        del->zone == zone) {
      return Result<Bytes>(ErrorCode::kWrongElement,
                           "referral zone '" + del->zone + "' does not cover name");
    }
    if (del->expires <= transport_->now()) {
      return Result<Bytes>(ErrorCode::kExpired, "delegation expired");
    }
    auto child_key = crypto::RsaPublicKey::parse(del->child_public_key);
    if (!child_key.is_ok()) return child_key.status();
    zone = del->zone;
    zone_key = std::move(*child_key);
    server = del->name_server;
  }
  return Result<Bytes>(ErrorCode::kProtocol, "referral chain too deep");
}

}  // namespace globe::naming
