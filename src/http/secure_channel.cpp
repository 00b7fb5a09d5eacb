#include "http/secure_channel.hpp"

#include <algorithm>

#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha256.hpp"
#include "http/parser.hpp"
#include "util/serial.hpp"

namespace globe::http {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Result;

namespace {

constexpr std::uint8_t kRecordHello = 1;
constexpr std::uint8_t kRecordKeyExchange = 2;
constexpr std::uint8_t kRecordData = 3;
constexpr std::size_t kRandomSize = 32;
constexpr std::size_t kPremasterSize = 48;

struct TrafficKeys {
  Bytes client_key, server_key, client_mac, server_mac;
};

TrafficKeys derive_keys(BytesView premaster, BytesView client_random,
                        BytesView server_random) {
  auto derive = [&](std::string_view label) {
    Bytes info = util::to_bytes(label);
    util::append(info, client_random);
    util::append(info, server_random);
    return crypto::hkdf_expand_sha256(premaster, info, 16);
  };
  return TrafficKeys{derive("client key"), derive("server key"),
                     derive("client mac"), derive("server mac")};
}

Bytes record_mac(BytesView mac_key, BytesView nonce, BytesView ct) {
  Bytes data(nonce.begin(), nonce.end());
  util::append(data, ct);
  return crypto::hmac_bytes<crypto::Sha1>(mac_key, data);
}

/// Encrypts `plain` into a (nonce, ct, mac) triple written to `w`.
void seal_record(util::Writer& w, BytesView key, BytesView mac_key, BytesView plain,
                 util::RandomSource& rng) {
  Bytes nonce = rng.bytes(12);
  crypto::AesCtr ctr(key, nonce);
  Bytes ct = ctr.process_copy(plain);
  Bytes mac = record_mac(mac_key, nonce, ct);
  w.bytes(nonce);
  w.bytes(ct);
  w.bytes(mac);
}

Result<Bytes> open_record(util::Reader& r, BytesView key, BytesView mac_key) {
  Bytes nonce = r.bytes();
  Bytes ct = r.bytes();
  Bytes mac = r.bytes();
  if (nonce.size() != 12) {
    return Result<Bytes>(ErrorCode::kProtocol, "bad record nonce");
  }
  if (!util::ct_equal(mac, record_mac(mac_key, nonce, ct))) {
    return Result<Bytes>(ErrorCode::kBadSignature, "record MAC mismatch");
  }
  crypto::AesCtr ctr(key, nonce);
  return ctr.process_copy(ct);
}

}  // namespace

Bytes make_certificate(const std::string& name, const crypto::RsaKeyPair& key) {
  util::Writer body;
  body.str(name);
  body.bytes(key.pub.serialize());
  Bytes signature = crypto::rsa_sign_sha256(key.priv, body.buffer());
  util::Writer cert;
  cert.bytes(body.buffer());
  cert.bytes(signature);
  return cert.take();
}

Result<crypto::RsaPublicKey> verify_certificate(BytesView cert,
                                                const std::string& expected_name) {
  try {
    util::Reader r(cert);
    Bytes body = r.bytes();
    Bytes signature = r.bytes();
    r.expect_end();

    util::Reader rb(body);
    std::string name = rb.str();
    Bytes pub_wire = rb.bytes();
    rb.expect_end();

    auto pub = crypto::RsaPublicKey::parse(pub_wire);
    if (!pub.is_ok()) return pub.status();
    if (!crypto::rsa_verify_sha256(*pub, body, signature)) {
      return Result<crypto::RsaPublicKey>(ErrorCode::kBadSignature,
                                          "certificate signature invalid");
    }
    if (name != expected_name) {
      return Result<crypto::RsaPublicKey>(
          ErrorCode::kUntrustedIssuer,
          "certificate names '" + name + "', expected '" + expected_name + "'");
    }
    return pub;
  } catch (const util::SerialError& e) {
    return Result<crypto::RsaPublicKey>(ErrorCode::kProtocol, e.what());
  }
}

SecureServer::SecureServer(crypto::RsaKeyPair identity, std::string certificate_name,
                           net::MessageHandler inner, std::uint64_t rng_seed)
    : identity_(std::move(identity)),
      inner_(std::move(inner)),
      rng_(crypto::HmacDrbg::from_seed(rng_seed)) {
  certificate_ = make_certificate(certificate_name, identity_);
}

std::size_t SecureServer::sessions() const {
  util::LockGuard lock(mutex_);
  return sessions_.size();
}

net::MessageHandler SecureServer::handler() {
  return [this](net::ServerContext& ctx, BytesView raw) { return handle(ctx, raw); };
}

Result<Bytes> SecureServer::handle(net::ServerContext& ctx, BytesView raw) {
  try {
    util::Reader r(raw);
    std::uint8_t type = r.u8();
    switch (type) {
      case kRecordHello: {
        Bytes client_random = r.bytes();
        r.expect_end();
        if (client_random.size() != kRandomSize) {
          return Result<Bytes>(ErrorCode::kProtocol, "bad client random");
        }
        util::LockGuard lock(mutex_);
        if (sessions_.size() >= kMaxSessions) {
          auto victim = std::find_if(sessions_.begin(), sessions_.end(),
                                     [](const auto& kv) { return !kv.second.established; });
          sessions_.erase(victim != sessions_.end() ? victim : sessions_.begin());
        }
        std::uint64_t id = next_session_++;
        Session& s = sessions_[id];
        s.client_random = std::move(client_random);
        s.server_random = rng_.bytes(kRandomSize);
        util::Writer w;
        w.bytes(s.server_random);
        w.bytes(certificate_);
        w.u64(id);
        return w.take();
      }
      case kRecordKeyExchange: {
        std::uint64_t id = r.u64();
        Bytes rsa_ct = r.bytes();
        r.expect_end();
        ctx.charge(net::CpuOp::kRsaDecrypt, 1);
        auto premaster = crypto::rsa_decrypt(identity_.priv, rsa_ct);
        if (!premaster.is_ok() || premaster->size() != kPremasterSize) {
          return Result<Bytes>(ErrorCode::kProtocol, "bad premaster");
        }
        util::LockGuard lock(mutex_);
        auto it = sessions_.find(id);
        if (it == sessions_.end()) {
          return Result<Bytes>(ErrorCode::kNotFound, "unknown session");
        }
        TrafficKeys keys =
            derive_keys(*premaster, it->second.client_random, it->second.server_random);
        it->second.client_key = std::move(keys.client_key);
        it->second.server_key = std::move(keys.server_key);
        it->second.client_mac = std::move(keys.client_mac);
        it->second.server_mac = std::move(keys.server_mac);
        it->second.established = true;
        util::Writer w;
        w.u8(1);  // ack
        return w.take();
      }
      case kRecordData: {
        std::uint64_t id = r.u64();
        Session session;
        {
          util::LockGuard lock(mutex_);
          auto it = sessions_.find(id);
          if (it == sessions_.end() || !it->second.established) {
            return Result<Bytes>(ErrorCode::kNotFound, "no established session");
          }
          session = it->second;
        }
        auto plain = open_record(r, session.client_key, session.client_mac);
        r.expect_end();
        if (!plain.is_ok()) return plain.status();
        ctx.charge(net::CpuOp::kSymCipher, plain->size());

        auto inner_result = inner_(ctx, *plain);
        if (!inner_result.is_ok()) return inner_result.status();
        Bytes reply = std::move(*inner_result).flatten();  // the cipher reads it whole

        ctx.charge(net::CpuOp::kSymCipher, reply.size());
        util::Writer w;
        Bytes nonce;
        {
          util::LockGuard lock(mutex_);
          nonce = rng_.bytes(12);
        }
        crypto::AesCtr ctr(session.server_key, nonce);
        Bytes ct = ctr.process_copy(reply);
        Bytes mac = record_mac(session.server_mac, nonce, ct);
        w.bytes(nonce);
        w.bytes(ct);
        w.bytes(mac);
        return w.take();
      }
      default:
        return Result<Bytes>(ErrorCode::kProtocol, "unknown record type");
    }
  } catch (const util::SerialError& e) {
    return Result<Bytes>(ErrorCode::kProtocol, e.what());
  }
}

SecureHttpClient::SecureHttpClient(net::Transport& transport, std::string expected_name,
                                   std::uint64_t rng_seed)
    : transport_(&transport),
      expected_name_(std::move(expected_name)),
      rng_(crypto::HmacDrbg::from_seed(rng_seed)) {}

Result<SecureHttpClient::ClientSession*> SecureHttpClient::session_for(
    const net::Endpoint& ep) {
  auto it = sessions_.find(ep);
  if (it != sessions_.end()) return &it->second;

  // --- Handshake round 1: hello.
  Bytes client_random = rng_.bytes(kRandomSize);
  util::Writer hello;
  hello.u8(kRecordHello);
  hello.bytes(client_random);
  auto hello_resp = transport_->call(ep, hello.buffer());
  if (!hello_resp.is_ok()) return hello_resp.status();

  Bytes server_random, certificate;
  std::uint64_t session_id;
  try {
    util::Reader r(*hello_resp);
    server_random = r.bytes();
    certificate = r.bytes();
    session_id = r.u64();
    r.expect_end();
  } catch (const util::SerialError& e) {
    return Result<ClientSession*>(ErrorCode::kProtocol, e.what());
  }

  // Verify the server certificate (the CA-chain check).
  transport_->charge(net::CpuOp::kRsaVerify, 1);
  auto server_key = verify_certificate(certificate, expected_name_);
  if (!server_key.is_ok()) return server_key.status();

  // --- Handshake round 2: key exchange.
  Bytes premaster = rng_.bytes(kPremasterSize);
  transport_->charge(net::CpuOp::kRsaEncrypt, 1);
  auto rsa_ct = crypto::rsa_encrypt(*server_key, premaster, rng_);
  if (!rsa_ct.is_ok()) return rsa_ct.status();
  util::Writer kx;
  kx.u8(kRecordKeyExchange);
  kx.u64(session_id);
  kx.bytes(*rsa_ct);
  auto kx_resp = transport_->call(ep, kx.buffer());
  if (!kx_resp.is_ok()) return kx_resp.status();

  TrafficKeys keys = derive_keys(premaster, client_random, server_random);
  ClientSession session;
  session.id = session_id;
  session.client_key = std::move(keys.client_key);
  session.server_key = std::move(keys.server_key);
  session.client_mac = std::move(keys.client_mac);
  session.server_mac = std::move(keys.server_mac);
  ++handshakes_;
  auto [ins, ok] = sessions_.emplace(ep, std::move(session));
  (void)ok;
  return &ins->second;
}

Result<HttpResponse> SecureHttpClient::get(const net::Endpoint& ep,
                                           const std::string& path) {
  HttpRequest req;
  req.method = "GET";
  req.target = path;
  req.headers.set("Host", expected_name_);
  req.headers.set("User-Agent", "globedoc-wget/1.0 (ssl)");
  return request(ep, req);
}

Result<HttpResponse> SecureHttpClient::request(const net::Endpoint& ep,
                                               const HttpRequest& req) {
  auto session = session_for(ep);
  if (!session.is_ok()) return session.status();
  ClientSession* s = *session;

  Bytes plain = req.serialize();
  transport_->charge(net::CpuOp::kSymCipher, plain.size());
  util::Writer w;
  w.u8(kRecordData);
  w.u64(s->id);
  seal_record(w, s->client_key, s->client_mac, plain, rng_);

  auto resp = transport_->call(ep, w.buffer());
  if (!resp.is_ok()) return resp.status();

  try {
    util::Reader r(*resp);
    auto plain_resp = open_record(r, s->server_key, s->server_mac);
    r.expect_end();
    if (!plain_resp.is_ok()) return plain_resp.status();
    transport_->charge(net::CpuOp::kSymCipher, plain_resp->size());
    return parse_response(*plain_resp);
  } catch (const util::SerialError& e) {
    return Result<HttpResponse>(ErrorCode::kProtocol, e.what());
  }
}

}  // namespace globe::http
