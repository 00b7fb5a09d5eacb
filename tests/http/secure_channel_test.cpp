#include "http/secure_channel.hpp"

#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "http/client.hpp"
#include "http/static_server.hpp"
#include "net/simnet.hpp"
#include "util/serial.hpp"

namespace globe::http {
namespace {

using util::Bytes;
using util::ErrorCode;
using util::to_bytes;

const crypto::RsaKeyPair& server_identity() {
  static const crypto::RsaKeyPair kp = [] {
    auto rng = crypto::HmacDrbg::from_seed(777);
    return crypto::rsa_generate(1024, rng);
  }();
  return kp;
}

struct SecureFixture : ::testing::Test {
  void SetUp() override {
    server_host = net.add_host({"server", net::CpuModel{}});
    client_host = net.add_host({"client", net::CpuModel{}});
    net.set_link(server_host, client_host, {util::millis(5), 1e6});

    files.put_file("/secret.html", to_bytes("<html>classified</html>"));
    secure = std::make_unique<SecureServer>(server_identity(), "www.example.org",
                                            files.handler(), 99);
    ep = net::Endpoint{server_host, 443};
    net.bind(ep, secure->handler());
    flow = net.open_flow(client_host);
  }

  net::SimNet net;
  net::HostId server_host, client_host;
  StaticHttpServer files;
  std::unique_ptr<SecureServer> secure;
  net::Endpoint ep;
  std::unique_ptr<net::SimFlow> flow;
};

TEST_F(SecureFixture, HandshakeAndGet) {
  SecureHttpClient client(*flow, "www.example.org", 1);
  auto resp = client.get(ep, "/secret.html");
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(util::to_string(resp->body), "<html>classified</html>");
  EXPECT_EQ(client.handshakes_performed(), 1u);
}

TEST_F(SecureFixture, SessionReusedAcrossRequests) {
  SecureHttpClient client(*flow, "www.example.org", 2);
  for (int i = 0; i < 5; ++i) {
    auto resp = client.get(ep, "/secret.html");
    ASSERT_TRUE(resp.is_ok());
  }
  EXPECT_EQ(client.handshakes_performed(), 1u);
}

TEST_F(SecureFixture, ResetSessionsForcesRehandshake) {
  SecureHttpClient client(*flow, "www.example.org", 3);
  ASSERT_TRUE(client.get(ep, "/secret.html").is_ok());
  client.reset_sessions();
  ASSERT_TRUE(client.get(ep, "/secret.html").is_ok());
  EXPECT_EQ(client.handshakes_performed(), 2u);
}

TEST_F(SecureFixture, WrongExpectedNameRejected) {
  SecureHttpClient client(*flow, "www.evil.example", 4);
  auto resp = client.get(ep, "/secret.html");
  EXPECT_FALSE(resp.is_ok());
  EXPECT_EQ(resp.code(), ErrorCode::kUntrustedIssuer);
}

TEST_F(SecureFixture, MissingFileStill200Path404Body) {
  SecureHttpClient client(*flow, "www.example.org", 5);
  auto resp = client.get(ep, "/nope.html");
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 404);
}

TEST_F(SecureFixture, HttpsSlowerThanHttpForSameContent) {
  // Same file served plain on another port.
  net::Endpoint plain_ep{server_host, 80};
  net.bind(plain_ep, files.handler());

  auto plain_flow = net.open_flow(client_host);
  HttpClient plain(*plain_flow);
  ASSERT_TRUE(plain.get(plain_ep, "/secret.html").is_ok());

  auto tls_flow = net.open_flow(client_host);
  SecureHttpClient tls(*tls_flow, "www.example.org", 6);
  ASSERT_TRUE(tls.get(ep, "/secret.html").is_ok());

  // HTTPS pays 2 extra round trips + RSA ops (server private-key decrypt).
  EXPECT_GT(tls_flow->now(), plain_flow->now() + net::CpuModel{}.rsa_decrypt);
}

TEST_F(SecureFixture, GarbageRecordRejected) {
  auto r = flow->call(ep, to_bytes("\x09garbage"));
  EXPECT_FALSE(r.is_ok());
}

TEST_F(SecureFixture, DataOnUnknownSessionRejected) {
  util::Writer w;
  w.u8(3);  // data record
  w.u64(424242);
  w.bytes(Bytes(12, 0));
  w.bytes(Bytes(16, 0));
  w.bytes(Bytes(20, 0));
  auto r = flow->call(ep, w.buffer());
  EXPECT_EQ(r.code(), ErrorCode::kNotFound);
}

// A peer that sends hellos and never completes a key exchange holds at most
// the session table's cap, and evicts only half-open sessions: a client
// that finished its handshake before the flood keeps its session.
TEST_F(SecureFixture, HelloFloodStaysAtCapAndSparesEstablishedSessions) {
  SecureHttpClient client(*flow, "www.example.org", 7);
  ASSERT_TRUE(client.get(ep, "/secret.html").is_ok());
  ASSERT_EQ(secure->sessions(), 1u);

  auto attacker = net.open_flow(client_host);
  util::Writer hello;
  hello.u8(1);  // hello record
  hello.bytes(Bytes(32, 0x5a));
  for (std::size_t i = 0; i < 2 * SecureServer::kMaxSessions; ++i) {
    ASSERT_TRUE(attacker->call(ep, hello.buffer()).is_ok());
    ASSERT_LE(secure->sessions(), SecureServer::kMaxSessions);
  }
  EXPECT_EQ(secure->sessions(), SecureServer::kMaxSessions);

  auto resp = client.get(ep, "/secret.html");
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(util::to_string(resp->body), "<html>classified</html>");
  EXPECT_EQ(client.handshakes_performed(), 1u);
}

TEST(CertificateTest, MakeAndVerifyRoundTrip) {
  Bytes cert = make_certificate("host.test", server_identity());
  auto pub = verify_certificate(cert, "host.test");
  ASSERT_TRUE(pub.is_ok());
  EXPECT_EQ(*pub, server_identity().pub);
}

TEST(CertificateTest, NameMismatchRejected) {
  Bytes cert = make_certificate("host.test", server_identity());
  EXPECT_EQ(verify_certificate(cert, "other.test").code(),
            ErrorCode::kUntrustedIssuer);
}

TEST(CertificateTest, TamperedCertificateRejected) {
  Bytes cert = make_certificate("host.test", server_identity());
  // Flip a bit inside the signed body.
  cert[10] ^= 0x01;
  auto r = verify_certificate(cert, "host.test");
  EXPECT_FALSE(r.is_ok());
}

TEST(CertificateTest, GarbageRejected) {
  EXPECT_FALSE(verify_certificate(to_bytes("junk"), "x").is_ok());
  EXPECT_FALSE(verify_certificate(Bytes{}, "x").is_ok());
}

}  // namespace
}  // namespace globe::http
