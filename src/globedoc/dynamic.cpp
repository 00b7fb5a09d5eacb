#include "globedoc/dynamic.hpp"

#include "crypto/sha1.hpp"
#include "util/serial.hpp"

namespace globe::globedoc {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Result;

Bytes DynamicReceipt::signed_body() const {
  util::Writer w;
  w.raw(oid.to_bytes());
  w.str(template_name);
  w.str(query);
  w.bytes(response_sha1);
  w.u64(served_at);
  w.str(server_name);
  return w.take();
}

Bytes DynamicReceipt::serialize() const {
  util::Writer w;
  w.bytes(signed_body());
  w.bytes(signature);
  return w.take();
}

Result<DynamicReceipt> DynamicReceipt::parse(BytesView data) {
  try {
    util::Reader r(data);
    Bytes body = r.bytes();
    Bytes sig = r.bytes();
    r.expect_end();

    util::Reader rb(body);
    DynamicReceipt receipt;
    auto oid = Oid::from_bytes(rb.raw(Oid::kSize));
    if (!oid.is_ok()) return oid.status();
    receipt.oid = *oid;
    receipt.template_name = rb.str();
    receipt.query = rb.str();
    receipt.response_sha1 = rb.bytes();
    receipt.served_at = rb.u64();
    receipt.server_name = rb.str();
    rb.expect_end();
    receipt.signature = std::move(sig);
    if (receipt.response_sha1.size() != crypto::Sha1::kDigestSize) {
      return Result<DynamicReceipt>(ErrorCode::kProtocol, "bad digest length");
    }
    return receipt;
  } catch (const util::SerialError& e) {
    return Result<DynamicReceipt>(ErrorCode::kProtocol, e.what());
  }
}

bool DynamicReceipt::verify(const crypto::RsaPublicKey& server_key,
                            BytesView response) const {
  if (!crypto::rsa_verify_sha256(server_key, signed_body(), signature)) {
    return false;
  }
  return util::ct_equal(crypto::Sha1::digest_bytes(response), response_sha1);
}

DynamicReplicaServer::DynamicReplicaServer(std::string name,
                                           crypto::RsaKeyPair server_key)
    : name_(std::move(name)), key_(std::move(server_key)) {}

void DynamicReplicaServer::host(const Oid& oid, const std::string& template_name,
                                Generator generator) {
  util::LockGuard lock(mutex_);
  generators_[{oid, template_name}] = std::move(generator);
}

void DynamicReplicaServer::set_cheat(std::function<Bytes(Bytes)> corruptor) {
  util::LockGuard lock(mutex_);
  cheat_ = std::move(corruptor);
}

void DynamicReplicaServer::register_with(rpc::ServiceDispatcher& dispatcher) {
  dispatcher.register_method(
      rpc::kGlobeDocDynamic, kDynQuery,
      [this](net::ServerContext& ctx, BytesView payload) {
        return handle_query(ctx, payload);
      });
}

Result<Bytes> DynamicReplicaServer::handle_query(net::ServerContext& ctx,
                                                 BytesView payload) {
  try {
    util::Reader r(payload);
    auto oid = Oid::from_bytes(r.raw(Oid::kSize));
    if (!oid.is_ok()) return oid.status();
    std::string template_name = r.str();
    std::string query = r.str();
    r.expect_end();

    Generator generator;
    std::function<Bytes(Bytes)> cheat;
    {
      util::LockGuard lock(mutex_);
      auto it = generators_.find({*oid, template_name});
      if (it == generators_.end()) {
        return Result<Bytes>(ErrorCode::kNotFound,
                             "no dynamic template '" + template_name + "'");
      }
      generator = it->second;
      cheat = cheat_;
    }

    Bytes response = generator(query);
    if (cheat) response = cheat(std::move(response));

    // The server signs what it actually serves: that is the accountability
    // hook.  A lying server must either sign its lie (caught by audit) or
    // send an unverifiable receipt (rejected immediately by the client).
    DynamicReceipt receipt;
    receipt.oid = *oid;
    receipt.template_name = template_name;
    receipt.query = query;
    receipt.response_sha1 = crypto::Sha1::digest_bytes(response);
    receipt.served_at = ctx.now();
    receipt.server_name = name_;
    ctx.charge(net::CpuOp::kRsaSign, 1);
    receipt.signature = crypto::rsa_sign_sha256(key_.priv, receipt.signed_body());

    util::Writer w;
    w.bytes(response);
    w.bytes(receipt.serialize());
    return w.take();
  } catch (const util::SerialError& e) {
    return Result<Bytes>(ErrorCode::kProtocol, e.what());
  }
}

bool MisbehaviorProof::verify(const crypto::RsaPublicKey& server_key) const {
  // The receipt must be genuinely signed by the accused server...
  if (!crypto::rsa_verify_sha256(server_key, receipt.signed_body(),
                                 receipt.signature)) {
    return false;
  }
  // ...and attest to different content than the origin's answer.
  return !util::ct_equal(crypto::Sha1::digest_bytes(origin_response),
                         receipt.response_sha1);
}

DynamicAuditor::DynamicAuditor(net::Transport& transport, Config config)
    : transport_(&transport), config_(std::move(config)), rng_(config_.seed) {}

Result<std::pair<Bytes, DynamicReceipt>> DynamicAuditor::parse_reply(BytesView raw) {
  try {
    util::Reader r(raw);
    Bytes response = r.bytes();
    auto receipt = DynamicReceipt::parse(r.bytes());
    r.expect_end();
    if (!receipt.is_ok()) return receipt.status();
    return std::make_pair(std::move(response), std::move(*receipt));
  } catch (const util::SerialError& e) {
    return Result<std::pair<Bytes, DynamicReceipt>>(ErrorCode::kProtocol, e.what());
  }
}

Result<Bytes> DynamicAuditor::query(const Oid& oid, const std::string& template_name,
                                    const std::string& query_string) {
  util::Writer req;
  req.raw(oid.to_bytes());
  req.str(template_name);
  req.str(query_string);

  rpc::RpcClient replica(*transport_, config_.replica);
  auto raw = replica.call(rpc::kGlobeDocDynamic, kDynQuery, req.buffer());
  if (!raw.is_ok()) return raw.status();
  auto reply = parse_reply(*raw);
  if (!reply.is_ok()) return reply.status();
  auto& [response, receipt] = *reply;

  // Immediate checks: the receipt must be well-formed, signed by the
  // replica, bound to this response, and answer THIS query.
  transport_->charge(net::CpuOp::kRsaVerify, 1);
  transport_->charge(net::CpuOp::kSha1, response.size());
  if (receipt.oid != oid || receipt.template_name != template_name ||
      receipt.query != query_string) {
    return Result<Bytes>(ErrorCode::kWrongElement,
                         "receipt answers a different query");
  }
  if (!receipt.verify(config_.replica_server_key, response)) {
    return Result<Bytes>(ErrorCode::kBadSignature, "dynamic receipt invalid");
  }

  // Probabilistic audit: replay at the trusted origin and compare.
  if (rng_.next_double() < config_.audit_probability) {
    ++audits_;
    rpc::RpcClient origin(*transport_, config_.origin);
    auto origin_raw = origin.call(rpc::kGlobeDocDynamic, kDynQuery, req.buffer());
    if (origin_raw.is_ok()) {
      auto origin_reply = parse_reply(*origin_raw);
      if (origin_reply.is_ok() &&
          !util::ct_equal(crypto::Sha1::digest_bytes(origin_reply->first),
                          receipt.response_sha1)) {
        proofs_.push_back(MisbehaviorProof{receipt, origin_reply->first});
      }
    }
  }
  return std::move(response);
}

}  // namespace globe::globedoc
