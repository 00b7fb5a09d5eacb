#include "globedoc/server.hpp"

#include <algorithm>
#include <functional>

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

Status not_hosted(const Oid& oid) {
  return Status(ErrorCode::kNotFound, "no replica of " + oid.to_hex());
}

Status not_creator() {
  return Status(ErrorCode::kPermissionDenied,
                "only the creating entity may manage this replica");
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
  auto held = std::make_shared<const ReplicaState>(state);
  const Oid oid = held->certificate.oid();
  util::LockGuard lock(mutex_);
  return admit_locked(oid, std::move(held), now, nullptr);
}

Status ObjectServer::admit_locked(const Oid& oid,
                                  std::shared_ptr<const ReplicaState> state,
                                  util::SimTime now, const Bytes* creator) {
  evict_lapsed_locked(now);
  auto it = replicas_.find(oid);
  const bool fresh = it == replicas_.end();
  Status capacity =
      check_capacity_locked(state->content_bytes(), fresh ? nullptr : &it->second);
  if (!capacity.is_ok()) return capacity;
  Hosted& hosted = fresh ? replicas_[oid] : it->second;
  hosted.state = std::move(state);
  hosted.installed_at = now;
  // A pull over a hosted replica neither extends its lease nor takes it
  // from its creator.
  if (creator != nullptr || fresh) {
    hosted.lease_until = limits_.max_lease != 0 ? now + limits_.max_lease : 0;
  }
  if (creator != nullptr) hosted.creator = *creator;
  return Status::ok();
}

void ObjectServer::set_resource_limits(const ResourceLimits& limits) {
  util::LockGuard lock(mutex_);
  limits_ = limits;
}

const ObjectServer::Hosted* ObjectServer::live_locked(const Oid& oid,
                                                      util::SimTime now) {
  auto it = replicas_.find(oid);
  if (it == replicas_.end()) return nullptr;
  if (lapsed(it->second.lease_until, now)) {
    replicas_.erase(it);
    return nullptr;
  }
  return &it->second;
}

std::shared_ptr<const ReplicaState> ObjectServer::snapshot(const Oid& oid,
                                                           util::SimTime now) {
  util::LockGuard lock(mutex_);
  const Hosted* hosted = live_locked(oid, now);
  return hosted != nullptr ? hosted->state : nullptr;
}

void ObjectServer::evict_lapsed_locked(util::SimTime now) {
  std::erase_if(replicas_, [now](const auto& entry) {
    return lapsed(entry.second.lease_until, now);
  });
}

Status ObjectServer::check_capacity_locked(std::uint64_t bytes,
                                           const Hosted* replaced) const {
  if (limits_.max_replica_bytes != 0 && bytes > limits_.max_replica_bytes) {
    return Status(ErrorCode::kUnavailable,
                  "hosting refused: replica exceeds per-replica byte limit");
  }
  if (replaced == nullptr && limits_.max_replicas != 0 &&
      replicas_.size() >= limits_.max_replicas) {
    return Status(ErrorCode::kUnavailable, "hosting refused: replica slots exhausted");
  }
  if (limits_.max_total_bytes != 0) {
    std::uint64_t in_use = 0;
    for (const auto& [oid, hosted] : replicas_) {
      if (&hosted != replaced) in_use += hosted.state->content_bytes();
    }
    if (in_use + bytes > limits_.max_total_bytes) {
      return Status(ErrorCode::kUnavailable,
                    "hosting refused: insufficient storage capacity");
    }
  }
  return Status::ok();
}

void ObjectServer::register_freshness_probe(obs::AdminHttpServer& admin,
                                            util::SimDuration budget) {
  admin.add_health_check("replication-freshness", [this, budget](
                                                      net::ServerContext& ctx) {
    util::SimTime newest = 0;
    {
      util::LockGuard lock(mutex_);
      if (replicas_.empty()) return Status::ok();
      for (const auto& [oid, h] : replicas_) newest = std::max(newest, h.installed_at);
    }
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
  std::vector<std::pair<Oid, std::shared_ptr<const ReplicaState>>> hosted;
  {
    util::LockGuard lock(mutex_);
    hosted.reserve(replicas_.size());
    for (const auto& [oid, h] : replicas_) hosted.emplace_back(oid, h.state);
  }
  obs::ConsistencyReport report;
  report.docs.reserve(hosted.size());
  for (const auto& [oid, held] : hosted) {
    const ReplicaState& state = *held;
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
          return std::invoke(fn, this, ctx, payload);
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
  bindm(rpc::kGlobeDocAdmin, kCreateReplica,
        [](ObjectServer* self, net::ServerContext& ctx, BytesView payload) {
          return self->handle_create_or_update(ctx, payload, /*create=*/true);
        });
  bindm(rpc::kGlobeDocAdmin, kUpdateReplica,
        [](ObjectServer* self, net::ServerContext& ctx, BytesView payload) {
          return self->handle_create_or_update(ctx, payload, /*create=*/false);
        });
  bindm(rpc::kGlobeDocAdmin, kDeleteReplica, &ObjectServer::handle_delete);
}

Result<net::Reply> ObjectServer::handle_get_element(net::ServerContext& ctx,
                                                    BytesView payload) {
  requests_counter_->inc();
  util::Reader r(payload);
  auto oid = read_oid(r);
  if (!oid.is_ok()) return oid.status();
  std::string name = r.str();
  r.expect_end();

  std::shared_ptr<const ReplicaState> state = snapshot(*oid, ctx.now());
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
}

Result<Bytes> ObjectServer::handle_fetch_many(net::ServerContext& ctx,
                                              BytesView payload) {
  requests_counter_->inc();
  batch_requests_counter_->inc();
  auto req = FetchManyRequest::parse(payload);
  if (!req.is_ok()) return req.status();

  std::shared_ptr<const ReplicaState> state = snapshot(req->oid, ctx.now());
  if (state == nullptr) return not_hosted(req->oid);
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

Result<std::shared_ptr<const ReplicaState>> ObjectServer::oid_request(
    net::ServerContext& ctx, BytesView payload) {
  requests_counter_->inc();
  util::Reader r(payload);
  auto oid = read_oid(r);
  if (!oid.is_ok()) return oid.status();
  r.expect_end();
  std::shared_ptr<const ReplicaState> state = snapshot(*oid, ctx.now());
  if (state == nullptr) return not_hosted(*oid);
  return state;
}

Result<Bytes> ObjectServer::handle_get_public_key(net::ServerContext& ctx,
                                                  BytesView payload) {
  auto state = oid_request(ctx, payload);
  if (!state.is_ok()) return state.status();
  return (*state)->public_key;
}

Result<Bytes> ObjectServer::handle_get_integrity_cert(net::ServerContext& ctx,
                                                      BytesView payload) {
  auto state = oid_request(ctx, payload);
  if (!state.is_ok()) return state.status();
  return (*state)->certificate.serialize();
}

Result<Bytes> ObjectServer::handle_get_identity_certs(net::ServerContext& ctx,
                                                      BytesView payload) {
  auto state = oid_request(ctx, payload);
  if (!state.is_ok()) return state.status();
  util::Writer w;
  write_identity_list(w, (*state)->identity_certs);
  return w.take();
}

Result<Bytes> ObjectServer::handle_challenge(net::ServerContext&, BytesView payload) {
  if (!payload.empty()) {
    return Result<Bytes>(ErrorCode::kProtocol, "challenge takes no payload");
  }
  Bytes nonce;
  {
    util::LockGuard lock(mutex_);
    // Bound against nonce flooding: a nonce is never looked up before it is
    // consumed, so LRU order is issue order and the OLDEST outstanding
    // challenge is evicted — a flood cannot selectively displace a fresh one.
    nonce = nonce_rng_.bytes(kNonceSize);
    outstanding_nonces_.put(nonce, true);
  }
  util::Writer w;
  w.bytes(nonce);
  return w.take();
}

ObjectServer::AdminRequest ObjectServer::read_admin_request(BytesView payload) {
  util::Reader r(payload);
  AdminRequest request;
  request.nonce = r.bytes();
  request.pubkey = r.bytes();
  request.signature = r.bytes();
  request.rest = r.raw(r.remaining());
  return request;
}

Result<Bytes> ObjectServer::check_admin_auth(net::ServerContext& ctx,
                                             const AdminRequest& request,
                                             std::string_view tag) {
  auto denied = [&](const char* why) {
    obs::emit_event(obs::EventLevel::kWarn, "server", "admin_auth_failed",
                    name_ + ": " + why + " (" + std::string(tag) + ")");
    return Result<Bytes>(ErrorCode::kPermissionDenied, why);
  };
  {
    util::LockGuard lock(mutex_);
    if (!outstanding_nonces_.erase(request.nonce)) {  // single use
      return denied("unknown or replayed nonce");
    }
    if (keystore_.count(request.pubkey) == 0) {
      return denied("key not in keystore");
    }
  }
  auto key = crypto::RsaPublicKey::parse(request.pubkey);
  if (!key.is_ok()) return key.status();
  ctx.charge(net::CpuOp::kRsaVerify, 1);
  // The signature vouches for who sent the rest, not for what it holds: a
  // state in it is verified on its own before it is hosted.  Passed as its
  // own local, the signature is all the taint pass takes as checked here,
  // not the whole request.
  const Bytes& signature = request.signature;
  if (!crypto::rsa_verify_sha256(
          *key, admin_signed_payload(tag, request.nonce, request.rest), signature)) {
    return denied("bad admin signature");
  }
  return request.pubkey;
}

Result<Bytes> ObjectServer::handle_create_or_update(net::ServerContext& ctx,
                                                    BytesView payload, bool create) {
  AdminRequest request = read_admin_request(payload);
  auto auth = check_admin_auth(ctx, request, create ? "create" : "update");
  if (!auth.is_ok()) return auth.status();

  util::Reader rp(request.rest);
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
  const Oid oid = state->certificate.oid();
  auto held = std::make_shared<const ReplicaState>(std::move(*state));

  {
    util::LockGuard lock(mutex_);
    // A replica installed unchecked (a peer pull) has no creator: it may be
    // created over, but not updated or deleted through the admin path.
    const Hosted* hosted = live_locked(oid, ctx.now());
    const bool managed = hosted != nullptr && !hosted->creator.empty();
    if (create) {
      if (managed) {
        return Result<Bytes>(ErrorCode::kAlreadyExists,
                             "replica exists: " + oid.to_hex());
      }
    } else {
      if (!managed) return not_hosted(oid);
      if (hosted->creator != *auth) return not_creator();
      // Refuse version rollback: a stale (but correctly signed) state must
      // not replace a newer one through the admin path.
      if (held->certificate.version() < hosted->state->certificate.version()) {
        return Result<Bytes>(ErrorCode::kInvalidArgument,
                             "state version older than the hosted replica");
      }
    }
    // Resource policy (paper §6 extension): enforce the administrator's
    // limits and start the hosting lease.
    Status admitted = admit_locked(oid, std::move(held), ctx.now(), &*auth);
    if (!admitted.is_ok()) return admitted;
  }
  replica_installs_->inc();
  obs::emit_event(obs::EventLevel::kInfo, "server", "replica_install",
                  name_ + ": " + oid.to_hex() + (create ? " created" : " updated"));
  return Bytes{};
}

Result<Bytes> ObjectServer::handle_delete(net::ServerContext& ctx, BytesView payload) {
  AdminRequest request = read_admin_request(payload);
  if (request.rest.size() != Oid::kSize) {
    return Result<Bytes>(ErrorCode::kProtocol, "delete payload must be an OID");
  }
  auto auth = check_admin_auth(ctx, request, "delete");
  if (!auth.is_ok()) return auth.status();

  auto oid = Oid::from_bytes(request.rest);
  if (!oid.is_ok()) return oid.status();

  {
    util::LockGuard lock(mutex_);
    auto it = replicas_.find(*oid);
    if (it == replicas_.end() || it->second.creator.empty()) return not_hosted(*oid);
    if (it->second.creator != *auth) return not_creator();
    replicas_.erase(it);
  }
  replica_deletes_->inc();
  obs::emit_event(obs::EventLevel::kInfo, "server", "replica_delete",
                  name_ + ": " + oid->to_hex());
  return Bytes{};
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
