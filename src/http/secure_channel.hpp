// TLS-like secure channel — the "Apache + SSL" baseline of Figures 5-7.
//
// Protocol (message-oriented; each record is one Transport round trip):
//   1. CLIENT_HELLO  {client_random}              -> {server_random,
//                                                     certificate, session_id}
//   2. KEY_EXCHANGE  {session_id, RSA(premaster)} -> {ack}
//   3. DATA          {session_id, nonce, ct, mac} -> {nonce, ct, mac}
//
// The certificate is self-signed (name + public key + RSA/SHA-256
// signature); the client verifies it against a pinned name, modeling the
// CA-chain check of a real deployment.  Traffic keys are derived with
// HKDF-SHA256 from the premaster and both randoms; records are encrypted
// with AES-128-CTR and authenticated with HMAC-SHA1 over the nonce and
// ciphertext.  This mirrors the cost structure of 2001-era SSL: two extra
// round trips, one server private-key operation per handshake, and per-byte
// symmetric crypto — which is exactly what drives the paper's HTTP vs HTTPS
// gap.  CPU costs are charged via the era model on both sides.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>

#include "crypto/drbg.hpp"
#include "crypto/rsa.hpp"
#include "http/message.hpp"
#include "net/transport.hpp"
#include "util/bounds_annotations.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace globe::http {

/// Server-side wrapper: terminates the secure channel and forwards the
/// decrypted HTTP request to an inner handler.
class SecureServer {
 public:
  SecureServer(crypto::RsaKeyPair identity, std::string certificate_name,
               net::MessageHandler inner, std::uint64_t rng_seed);

  net::MessageHandler handler();

  const crypto::RsaPublicKey& public_key() const { return identity_.pub; }

  /// Sessions held at once.  A hello past the cap evicts the oldest
  /// half-open session, else the oldest established one, so a peer that
  /// sends hellos and never completes a key exchange recycles only its own
  /// half-open slots.
  static constexpr std::size_t kMaxSessions = 1024;

  /// Sessions held now, half-open and established (for tests).
  std::size_t sessions() const GLOBE_EXCLUDES(mutex_);

 private:
  struct Session {
    util::Bytes client_random;
    util::Bytes server_random;
    util::Bytes client_key, server_key;   // AES-128
    util::Bytes client_mac, server_mac;   // HMAC keys
    bool established = false;
  };

  util::Result<util::Bytes> handle(net::ServerContext& ctx, util::BytesView raw)
      GLOBE_EXCLUDES(mutex_);

  crypto::RsaKeyPair identity_;
  util::Bytes certificate_;  // serialized name+pubkey+signature
  net::MessageHandler inner_;
  mutable util::Mutex mutex_;
  crypto::HmacDrbg rng_ GLOBE_GUARDED_BY(mutex_);
  // Keyed by session id, which counts up, so iteration runs oldest first.
  std::map<std::uint64_t, Session> sessions_ GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex_);
  std::uint64_t next_session_ GLOBE_GUARDED_BY(mutex_) = 1;
};

/// Client side: performs the handshake on first contact with an endpoint and
/// sends HTTP requests over the established session.
class SecureHttpClient {
 public:
  /// `expected_name` is the identity the server certificate must carry
  /// (models hostname verification against the CA-signed name).
  SecureHttpClient(net::Transport& transport, std::string expected_name,
                   std::uint64_t rng_seed);

  GLOBE_BLOCKING util::Result<HttpResponse> get(const net::Endpoint& ep,
                                                const std::string& path);
  GLOBE_BLOCKING util::Result<HttpResponse> request(const net::Endpoint& ep,
                                                    const HttpRequest& req);

  /// Drops all sessions; next request pays a full handshake (models the
  /// per-connection handshakes of era HTTPS clients).
  void reset_sessions() { sessions_.clear(); }

  std::size_t handshakes_performed() const { return handshakes_; }

 private:
  struct ClientSession {
    std::uint64_t id = 0;
    util::Bytes client_key, server_key, client_mac, server_mac;
  };

  util::Result<ClientSession*> session_for(const net::Endpoint& ep);

  net::Transport* transport_;
  std::string expected_name_;
  crypto::HmacDrbg rng_;
  std::unordered_map<net::Endpoint, ClientSession> sessions_ GLOBE_BOUNDED;
  std::size_t handshakes_ = 0;
};

/// Serialized self-signed certificate helpers (exposed for tests).
util::Bytes make_certificate(const std::string& name, const crypto::RsaKeyPair& key);
[[nodiscard]] util::Result<crypto::RsaPublicKey> verify_certificate(
    util::BytesView cert, const std::string& expected_name);

}  // namespace globe::http
