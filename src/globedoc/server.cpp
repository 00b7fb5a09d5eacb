#include "globedoc/server.hpp"

#include <algorithm>

#include "crypto/merkle.hpp"
#include "globedoc/fetch_many.hpp"
#include "obs/admin.hpp"
#include "obs/trace.hpp"
#include "util/serial.hpp"

namespace globe::globedoc {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

Result<Oid> read_oid(util::Reader& r) {
  return Oid::from_bytes(r.raw(Oid::kSize));
}

Bytes admin_signed_payload(std::string_view tag, BytesView nonce, BytesView payload) {
  util::Writer w;
  w.str(tag);
  w.bytes(nonce);
  w.raw(payload);
  return w.take();
}

constexpr std::size_t kNonceSize = 16;
constexpr std::size_t kMaxOutstandingNonces = 4096;

bool lapsed(util::SimTime lease_until, util::SimTime now) {
  return lease_until != 0 && lease_until <= now;  // 0 = unlimited
}

Result<Bytes> not_hosted(const Oid& oid) {
  return Result<Bytes>(ErrorCode::kNotFound, "no replica of " + oid.to_hex());
}

Status refused(const HostingGrant& grant) {
  return Status(ErrorCode::kUnavailable, "hosting refused: " + grant.reason);
}

}  // namespace

ObjectServer::ObjectServer(std::string name, std::uint64_t nonce_seed,
                           obs::MetricsRegistry* registry,
                           obs::ProfileRegistry* profile)
    : name_(std::move(name)),
      nonce_rng_(crypto::HmacDrbg::from_seed(nonce_seed)),
      outstanding_nonces_({.max_entries = kMaxOutstandingNonces}),
      profile_(profile) {
  if (registry == nullptr) registry = &obs::global_registry();
  obs::Labels labels{{"server", name_}};
  requests_counter_ = &registry->counter("object_server.requests", labels);
  batch_requests_counter_ =
      &registry->counter("object_server.batch_requests", labels);
  elements_counter_ = &registry->counter("object_server.elements_served", labels);
  bytes_counter_ = &registry->counter("object_server.bytes_served", labels);
  replica_installs_ = &registry->counter("object_server.replica_installs", labels);
  replica_deletes_ = &registry->counter("object_server.replica_deletes", labels);
}

void ObjectServer::authorize(const crypto::RsaPublicKey& key) {
  util::LockGuard lock(mutex_);
  keystore_.insert(key.serialize());
}

Status ObjectServer::install_replica_unchecked(const ReplicaState& state,
                                               util::SimTime now) {
  const Oid oid = state.certificate.oid();
  util::LockGuard lock(mutex_);
  evict_lapsed_locked(now);
  HostingGrant grant = check_capacity_locked(
      state.content_bytes(), replicas_.count(oid) > 0 ? &oid : nullptr);
  if (!grant.accepted) return refused(grant);
  install_locked(oid, state, now);
  return Status::ok();
}

ObjectServer::Hosted& ObjectServer::install_locked(const Oid& oid,
                                                   ReplicaState state,
                                                   util::SimTime now) {
  Hosted& hosted = replicas_[oid];
  hosted.state = std::make_shared<const ReplicaState>(std::move(state));
  hosted.installed_at = now;
  return hosted;
}

void ObjectServer::set_resource_limits(const ResourceLimits& limits) {
  util::LockGuard lock(mutex_);
  limits_ = limits;
}

std::shared_ptr<const ReplicaState> ObjectServer::live_locked(const Oid& oid,
                                                               util::SimTime now) {
  auto it = replicas_.find(oid);
  if (it == replicas_.end()) return nullptr;
  if (lapsed(it->second.lease_until, now)) {
    replicas_.erase(it);
    return nullptr;
  }
  return it->second.state;
}

void ObjectServer::evict_lapsed_locked(util::SimTime now) {
  std::erase_if(replicas_, [now](const auto& entry) {
    return lapsed(entry.second.lease_until, now);
  });
}

HostingGrant ObjectServer::check_capacity_locked(std::uint64_t bytes,
                                                 const Oid* existing_oid) const {
  HostingGrant grant;
  if (limits_.max_replica_bytes != 0 && bytes > limits_.max_replica_bytes) {
    grant.reason = "replica exceeds per-replica byte limit";
    return grant;
  }
  if (existing_oid == nullptr && limits_.max_replicas != 0 &&
      replicas_.size() >= limits_.max_replicas) {
    grant.reason = "replica slots exhausted";
    return grant;
  }
  if (limits_.max_total_bytes != 0) {
    std::uint64_t in_use = 0;
    for (const auto& [oid, hosted] : replicas_) {
      if (existing_oid != nullptr && oid == *existing_oid) continue;
      in_use += hosted.state->content_bytes();
    }
    if (in_use + bytes > limits_.max_total_bytes) {
      grant.reason = "insufficient storage capacity";
      return grant;
    }
  }
  grant.accepted = true;
  grant.lease = limits_.max_lease;
  return grant;
}

void ObjectServer::register_freshness_probe(obs::AdminHttpServer& admin,
                                            util::SimDuration budget) {
  admin.add_health_check("replication-freshness", [this, budget](
                                                      net::ServerContext& ctx) {
    util::LockGuard lock(mutex_);
    if (replicas_.empty()) return Status::ok();
    util::SimTime newest = 0;
    for (const auto& [oid, h] : replicas_) newest = std::max(newest, h.installed_at);
    util::SimTime now = ctx.now();
    if (now > newest && now - newest > budget) {
      return Status(ErrorCode::kUnavailable,
                    name_ + " replication stale: newest state installed " +
                        std::to_string((now - newest) / util::kSecond) +
                        "s ago (budget " +
                        std::to_string(budget / util::kSecond) + "s)");
    }
    return Status::ok();
  });
}

obs::ConsistencyReport ObjectServer::consistency_report() const {
  util::LockGuard lock(mutex_);
  obs::ConsistencyReport report;
  report.docs.reserve(replicas_.size());
  for (const auto& [oid, hosted] : replicas_) {
    const ReplicaState& state = *hosted.state;
    obs::DocConsistency doc;
    doc.oid = oid.to_bytes();
    doc.epoch = state.certificate.version();
    // Digest the elements as STORED (certificate entries could be echoed
    // verbatim by a tamperer): leaves are per-element SHA-1 digests of the
    // serialized elements, name order, rolled up into a Merkle root.
    std::vector<const PageElement*> ordered;
    ordered.reserve(state.elements.size());
    for (const PageElement& e : state.elements) ordered.push_back(&e);
    std::sort(ordered.begin(), ordered.end(),
              [](const PageElement* a, const PageElement* b) {
                return a->name < b->name;
              });
    if (ordered.empty()) {
      doc.digest.assign(obs::kConsistencyDigestSize, 0);
    } else {
      std::vector<Bytes> leaves;
      leaves.reserve(ordered.size());
      for (const PageElement* e : ordered) leaves.push_back(e->digest());
      doc.digest = crypto::MerkleTree(leaves).root();
    }
    doc.earliest_expiry = 0;
    for (const ElementEntry& entry : state.certificate.entries()) {
      if (doc.earliest_expiry == 0 || entry.expires < doc.earliest_expiry) {
        doc.earliest_expiry = entry.expires;
      }
    }
    report.docs.push_back(std::move(doc));
  }
  return report;
}

void ObjectServer::register_with(rpc::ServiceDispatcher& dispatcher) {
  auto bindm = [&](std::uint16_t service, std::uint16_t method, auto fn) {
    dispatcher.register_method(
        service, method,
        [this, fn, span_name = rpc::rpc_span_name(service, method)](
            net::ServerContext& ctx, BytesView payload) {
          // Single choke point for every bound method: the whole handler
          // (crypto included) is profiled in this server's registry under
          // its server span's name.
          obs::ProfileRegistryScope profile_scope(profile_);
          obs::CostProbe probe(span_name.c_str());
          return (this->*fn)(ctx, payload);
        });
  };
  bindm(rpc::kGlobeDocAccess, kGetElement, &ObjectServer::handle_get_element);
  bindm(rpc::kGlobeDocAccess, kFetchMany, &ObjectServer::handle_fetch_many);
  bindm(rpc::kGlobeDocSecurity, kGetPublicKey, &ObjectServer::handle_get_public_key);
  bindm(rpc::kGlobeDocSecurity, kGetIntegrityCert,
        &ObjectServer::handle_get_integrity_cert);
  bindm(rpc::kGlobeDocSecurity, kGetIdentityCerts,
        &ObjectServer::handle_get_identity_certs);
  bindm(rpc::kGlobeDocAdmin, kChallenge, &ObjectServer::handle_challenge);
  dispatcher.register_method(rpc::kGlobeDocAdmin, kCreateReplica,
                             [this](net::ServerContext& ctx, BytesView payload) {
                               return handle_create_or_update(ctx, payload, true);
                             });
  dispatcher.register_method(rpc::kGlobeDocAdmin, kUpdateReplica,
                             [this](net::ServerContext& ctx, BytesView payload) {
                               return handle_create_or_update(ctx, payload, false);
                             });
  bindm(rpc::kGlobeDocAdmin, kDeleteReplica, &ObjectServer::handle_delete);
}

Result<net::Reply> ObjectServer::handle_get_element(net::ServerContext& ctx,
                                                    BytesView payload) {
  requests_counter_->inc();
  try {
    util::Reader r(payload);
    auto oid = read_oid(r);
    if (!oid.is_ok()) return oid.status();
    std::string name = r.str();
    r.expect_end();

    std::shared_ptr<const ReplicaState> state;
    {
      util::LockGuard lock(mutex_);
      state = live_locked(*oid, ctx.now());
    }
    if (state == nullptr) return not_hosted(*oid);
    const PageElement* el = state->find(name);
    if (el == nullptr) {
      return Result<net::Reply>(ErrorCode::kNotFound, "no element '" + name + "'");
    }
    elements_counter_->inc();
    bytes_counter_->inc(el->content.size());
    // serialize()'s bytes: the few before the content, then a view of the
    // content in the snapshot, which the reply keeps alive across updates.
    BytesView content = el->content;
    return net::Reply(el->serialize_head(), content, std::move(state));
  } catch (const util::SerialError& e) {
    return Result<net::Reply>(ErrorCode::kProtocol, e.what());
  }
}

Result<Bytes> ObjectServer::handle_fetch_many(net::ServerContext& ctx,
                                              BytesView payload) {
  requests_counter_->inc();
  batch_requests_counter_->inc();
  auto req = FetchManyRequest::parse(payload);
  if (!req.is_ok()) return req.status();

  std::shared_ptr<const ReplicaState> state;
  {
    util::LockGuard lock(mutex_);
    state = live_locked(req->oid, ctx.now());
  }
  if (state == nullptr) return not_hosted(req->oid);
  // The snapshot is immutable, so the reply is built outside mutex_.
  FetchManyResponse resp;
  if (req->include_cert) {
    resp.certificate = state->certificate.serialize();
  }
  resp.items.reserve(req->names.size());
  for (const auto& name : req->names) {
    FetchManyResponse::Item item;
    const PageElement* el = state->find(name);
    if (el != nullptr) {
      item.found = true;
      item.element = el->serialize();
      elements_counter_->inc();
      bytes_counter_->inc(el->content.size());
    }
    resp.items.push_back(std::move(item));
  }
  return resp.serialize();
}

Result<Bytes> ObjectServer::handle_get_public_key(net::ServerContext& ctx,
                                                  BytesView payload) {
  requests_counter_->inc();
  try {
    util::Reader r(payload);
    auto oid = read_oid(r);
    if (!oid.is_ok()) return oid.status();
    r.expect_end();
    util::LockGuard lock(mutex_);
    auto state = live_locked(*oid, ctx.now());
    if (state == nullptr) return not_hosted(*oid);
    return state->public_key;
  } catch (const util::SerialError& e) {
    return Result<Bytes>(ErrorCode::kProtocol, e.what());
  }
}

Result<Bytes> ObjectServer::handle_get_integrity_cert(net::ServerContext& ctx,
                                                      BytesView payload) {
  requests_counter_->inc();
  try {
    util::Reader r(payload);
    auto oid = read_oid(r);
    if (!oid.is_ok()) return oid.status();
    r.expect_end();
    util::LockGuard lock(mutex_);
    auto state = live_locked(*oid, ctx.now());
    if (state == nullptr) return not_hosted(*oid);
    return state->certificate.serialize();
  } catch (const util::SerialError& e) {
    return Result<Bytes>(ErrorCode::kProtocol, e.what());
  }
}

Result<Bytes> ObjectServer::handle_get_identity_certs(net::ServerContext& ctx,
                                                      BytesView payload) {
  requests_counter_->inc();
  try {
    util::Reader r(payload);
    auto oid = read_oid(r);
    if (!oid.is_ok()) return oid.status();
    r.expect_end();
    util::LockGuard lock(mutex_);
    auto state = live_locked(*oid, ctx.now());
    if (state == nullptr) return not_hosted(*oid);
    util::Writer w;
    write_identity_list(w, state->identity_certs);
    return w.take();
  } catch (const util::SerialError& e) {
    return Result<Bytes>(ErrorCode::kProtocol, e.what());
  }
}

Result<Bytes> ObjectServer::handle_challenge(net::ServerContext&, BytesView payload) {
  if (!payload.empty()) {
    return Result<Bytes>(ErrorCode::kProtocol, "challenge takes no payload");
  }
  util::LockGuard lock(mutex_);
  // Bound against nonce flooding: a nonce is never looked up before it is
  // consumed, so LRU order is issue order and the OLDEST outstanding
  // challenge is evicted — a flood cannot selectively displace a fresh one.
  Bytes nonce = nonce_rng_.bytes(kNonceSize);
  outstanding_nonces_.put(nonce, true);
  util::Writer w;
  w.bytes(nonce);
  return w.take();
}

Result<Bytes> ObjectServer::check_admin_auth(net::ServerContext& ctx,
                                             const Bytes& nonce, const Bytes& pubkey,
                                             const Bytes& signature,
                                             std::string_view tag, BytesView payload) {
  auto denied = [&](const char* why) {
    obs::emit_event(obs::EventLevel::kWarn, "server", "admin_auth_failed",
                    name_ + ": " + why + " (" + std::string(tag) + ")");
    return Result<Bytes>(ErrorCode::kPermissionDenied, why);
  };
  {
    util::LockGuard lock(mutex_);
    if (!outstanding_nonces_.erase(nonce)) {  // single use
      return denied("unknown or replayed nonce");
    }
    if (keystore_.count(pubkey) == 0) {
      return denied("key not in keystore");
    }
  }
  auto key = crypto::RsaPublicKey::parse(pubkey);
  if (!key.is_ok()) return key.status();
  ctx.charge(net::CpuOp::kRsaVerify, 1);
  if (!crypto::rsa_verify_sha256(*key, admin_signed_payload(tag, nonce, payload),
                                 signature)) {
    return denied("bad admin signature");
  }
  return pubkey;
}

Result<Bytes> ObjectServer::handle_create_or_update(net::ServerContext& ctx,
                                                    BytesView payload, bool create) {
  try {
    util::Reader r(payload);
    Bytes nonce = r.bytes();
    Bytes pubkey = r.bytes();
    Bytes signature = r.bytes();
    // The signature covers the raw remaining payload exactly as the client
    // serialized it.
    Bytes signed_payload = r.raw(r.remaining());

    auto auth = check_admin_auth(ctx, nonce, pubkey, signature,
                                 create ? "create" : "update", signed_payload);
    if (!auth.is_ok()) return auth.status();

    util::Reader rp(signed_payload);
    Bytes state_wire = rp.bytes();
    rp.expect_end();

    auto state = ReplicaState::parse(state_wire);
    if (!state.is_ok()) return state.status();
    // Verify before use (paper §3.2.2): admin auth only proves *who* pushed
    // the state, not that the state is internally authentic.  Hosting an
    // inconsistent state would make this server serve bytes every client
    // rejects — or worse, keep serving them if a client-side check ever
    // regressed.  Key↔OID, certificate signature, element hashes and entry
    // freshness are all checked here, before anything is installed.
    util::Status state_ok = state->verify(ctx.now());
    if (!state_ok.is_ok()) return state_ok;
    Oid oid = state->certificate.oid();

    util::LockGuard lock(mutex_);
    evict_lapsed_locked(ctx.now());
    // A replica installed unchecked (a peer pull) has no creator: it may be
    // created over, but not updated or deleted through the admin path.
    auto it = replicas_.find(oid);
    const bool managed = it != replicas_.end() && !it->second.creator.empty();
    if (create) {
      if (managed) {
        return Result<Bytes>(ErrorCode::kAlreadyExists,
                             "replica exists: " + oid.to_hex());
      }
    } else {
      if (!managed) return not_hosted(oid);
      if (it->second.creator != *auth) {
        return Result<Bytes>(ErrorCode::kPermissionDenied,
                             "only the creating entity may manage this replica");
      }
      // Refuse version rollback: a stale (but correctly signed) state must
      // not replace a newer one through the admin path.
      if (state->certificate.version() < it->second.state->certificate.version()) {
        return Result<Bytes>(ErrorCode::kInvalidArgument,
                             "state version older than the hosted replica");
      }
    }
    // Resource policy (paper §6 extension): enforce the administrator's
    // limits and start the hosting lease.
    HostingGrant grant =
        check_capacity_locked(state->content_bytes(), create ? nullptr : &oid);
    if (!grant.accepted) return refused(grant);
    Hosted& hosted = install_locked(oid, std::move(*state), ctx.now());
    hosted.creator = *auth;
    hosted.lease_until = grant.lease != 0 ? ctx.now() + grant.lease : 0;
    replica_installs_->inc();
    obs::emit_event(obs::EventLevel::kInfo, "server", "replica_install",
                    name_ + ": " + oid.to_hex() +
                        (create ? " created" : " updated"));
    return Bytes{};
  } catch (const util::SerialError& e) {
    return Result<Bytes>(ErrorCode::kProtocol, e.what());
  }
}

Result<Bytes> ObjectServer::handle_delete(net::ServerContext& ctx, BytesView payload) {
  try {
    util::Reader r(payload);
    Bytes nonce = r.bytes();
    Bytes pubkey = r.bytes();
    Bytes signature = r.bytes();
    Bytes oid_bytes = r.raw(r.remaining());
    if (oid_bytes.size() != Oid::kSize) {
      return Result<Bytes>(ErrorCode::kProtocol, "delete payload must be an OID");
    }

    auto auth = check_admin_auth(ctx, nonce, pubkey, signature, "delete", oid_bytes);
    if (!auth.is_ok()) return auth.status();

    auto oid = Oid::from_bytes(oid_bytes);
    if (!oid.is_ok()) return oid.status();

    util::LockGuard lock(mutex_);
    auto it = replicas_.find(*oid);
    if (it == replicas_.end() || it->second.creator.empty()) return not_hosted(*oid);
    if (it->second.creator != *auth) {
      return Result<Bytes>(ErrorCode::kPermissionDenied,
                           "only the creating entity may manage this replica");
    }
    replicas_.erase(it);
    replica_deletes_->inc();
    obs::emit_event(obs::EventLevel::kInfo, "server", "replica_delete",
                    name_ + ": " + oid->to_hex());
    return Bytes{};
  } catch (const util::SerialError& e) {
    return Result<Bytes>(ErrorCode::kProtocol, e.what());
  }
}

AdminClient::AdminClient(net::Transport& transport, net::Endpoint server,
                         crypto::RsaKeyPair credentials)
    : transport_(&transport), server_(server), credentials_(std::move(credentials)) {}

Result<Bytes> AdminClient::fresh_nonce() {
  rpc::RpcClient client(*transport_, server_);
  auto raw = client.call(rpc::kGlobeDocAdmin, kChallenge, Bytes{});
  if (!raw.is_ok()) return raw.status();
  try {
    util::Reader r(*raw);
    Bytes nonce = r.bytes();
    r.expect_end();
    return nonce;
  } catch (const util::SerialError& e) {
    return Result<Bytes>(ErrorCode::kProtocol, e.what());
  }
}

Status AdminClient::authed_call(std::uint16_t method, std::string_view tag,
                                BytesView payload) {
  auto nonce = fresh_nonce();
  if (!nonce.is_ok()) return nonce.status();

  transport_->charge(net::CpuOp::kRsaSign, 1);
  Bytes signature = crypto::rsa_sign_sha256(
      credentials_.priv, admin_signed_payload(tag, *nonce, payload));

  util::Writer w;
  w.bytes(*nonce);
  w.bytes(credentials_.pub.serialize());
  w.bytes(signature);
  w.raw(payload);
  rpc::RpcClient client(*transport_, server_);
  return client.call(rpc::kGlobeDocAdmin, method, w.buffer()).status();
}

Status AdminClient::create_replica(const ReplicaState& state) {
  util::Writer w;
  w.bytes(state.serialize());
  return authed_call(kCreateReplica, "create", w.buffer());
}

Status AdminClient::update_replica(const ReplicaState& state) {
  util::Writer w;
  w.bytes(state.serialize());
  return authed_call(kUpdateReplica, "update", w.buffer());
}

Status AdminClient::delete_replica(const Oid& oid) {
  return authed_call(kDeleteReplica, "delete", oid.to_bytes());
}

}  // namespace globe::globedoc
