// Integration: the complete GlobeDoc stack — naming, location, object
// server, owner tooling, verifying proxy — over real TCP sockets on
// localhost.  Identical protocol code to the simulated tests; only the
// Transport differs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "crypto/drbg.hpp"
#include "globedoc/owner.hpp"
#include "globedoc/proxy.hpp"
#include "globedoc/proxy_http.hpp"
#include "http/client.hpp"
#include "globedoc/server.hpp"
#include "location/tree.hpp"
#include "naming/service.hpp"
#include "net/tcp.hpp"

// Every allocation in this binary goes through the replacement operator new
// below, which counts those of at least kLargeAllocation bytes while armed:
// an element of 256 KB costs one count for each buffer that holds it whole.
namespace {

constexpr std::size_t kLargeAllocation = 128 * 1024;
std::atomic<bool> g_count_large{false};
std::atomic<int> g_large_allocations{0};

void* counted_malloc(std::size_t n) {
  if (n >= kLargeAllocation && g_count_large.load(std::memory_order_relaxed)) {
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form that the runtime would otherwise pair with its own
// allocator; the aligned forms stay the runtime's, as a pair.
void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace globe::globedoc {
namespace {

using util::Bytes;
using util::ErrorCode;
using util::to_bytes;

net::Endpoint port_ep(std::uint16_t port) {
  return net::Endpoint{net::HostId{0}, port};
}

crypto::RsaKeyPair tcp_key(std::uint64_t seed) {
  auto rng = crypto::HmacDrbg::from_seed(seed);
  return crypto::rsa_generate(512, rng);
}

struct TcpStackFixture : ::testing::Test {
  void SetUp() override {
    zone_keys = tcp_key(61);
    root_zone = std::make_shared<naming::ZoneAuthority>("", zone_keys);
    naming_server.add_zone(root_zone);
    naming_server.register_with(naming_dispatcher);
    naming_tcp = std::make_unique<net::TcpServer>(0, naming_dispatcher.handler());

    root_node = std::make_unique<location::LocationNode>("root", false);
    site_node = std::make_unique<location::LocationNode>("site", true);
    root_node->register_with(root_dispatcher);
    site_node->register_with(site_dispatcher);
    root_tcp = std::make_unique<net::TcpServer>(0, root_dispatcher.handler());
    site_tcp = std::make_unique<net::TcpServer>(0, site_dispatcher.handler());
    root_node->add_child("site", port_ep(site_tcp->port()));
    site_node->set_parent(port_ep(root_tcp->port()));

    credentials = tcp_key(62);
    object_server = std::make_unique<ObjectServer>("tcp-srv", 63);
    object_server->authorize(credentials.pub);
    object_server->register_with(object_dispatcher);
    object_tcp = std::make_unique<net::TcpServer>(0, object_dispatcher.handler());

    GlobeDocObject object(tcp_key(64));
    object.put_element({"index.html", "text/html", to_bytes("<html>tcp</html>")});
    object.put_element({"big.bin", "application/octet-stream", Bytes(50000, 0xAB)});
    owner = std::make_unique<ObjectOwner>(std::move(object), credentials);

    util::SimTime now = util::RealClock().now();
    owner->register_name(*root_zone, "tcp.vu.nl", now + util::seconds(600));
    auto state = owner->sign_and_snapshot(now, util::seconds(600));
    ASSERT_TRUE(owner
                    ->publish_replica(owner_transport, port_ep(object_tcp->port()),
                                      port_ep(site_tcp->port()), state)
                    .is_ok());
  }

  ProxyConfig proxy_config() {
    ProxyConfig config;
    config.naming_root = port_ep(naming_tcp->port());
    config.naming_anchor = zone_keys.pub;
    config.location_site = port_ep(site_tcp->port());
    return config;
  }

  crypto::RsaKeyPair zone_keys, credentials;
  std::shared_ptr<naming::ZoneAuthority> root_zone;
  naming::NamingServer naming_server;
  rpc::ServiceDispatcher naming_dispatcher, root_dispatcher, site_dispatcher,
      object_dispatcher;
  std::unique_ptr<net::TcpServer> naming_tcp, root_tcp, site_tcp, object_tcp;
  std::unique_ptr<location::LocationNode> root_node, site_node;
  std::unique_ptr<ObjectServer> object_server;
  std::unique_ptr<ObjectOwner> owner;
  net::TcpTransport owner_transport;
};

TEST_F(TcpStackFixture, SecureFetchOverRealSockets) {
  net::TcpTransport transport;
  GlobeDocProxy proxy(transport, proxy_config());
  auto result = proxy.fetch("tcp.vu.nl", "index.html");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(util::to_string(result->element.content), "<html>tcp</html>");
}

TEST_F(TcpStackFixture, LargeElementOverRealSockets) {
  net::TcpTransport transport;
  GlobeDocProxy proxy(transport, proxy_config());
  auto result = proxy.fetch("tcp.vu.nl", "big.bin");
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->element.content.size(), 50000u);
}

TEST_F(TcpStackFixture, UnknownNameFailsCleanly) {
  net::TcpTransport transport;
  GlobeDocProxy proxy(transport, proxy_config());
  EXPECT_EQ(proxy.fetch("ghost.vu.nl", "index.html").code(), ErrorCode::kNotFound);
}

TEST_F(TcpStackFixture, UpdatePropagatesOverRealSockets) {
  owner->object().put_element({"index.html", "text/html", to_bytes("<html>v2</html>")});
  ASSERT_TRUE(owner
                  ->refresh_replicas(owner_transport, util::RealClock().now(),
                                     util::seconds(600))
                  .is_ok());
  net::TcpTransport transport;
  GlobeDocProxy proxy(transport, proxy_config());
  auto result = proxy.fetch("tcp.vu.nl", "index.html");
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(util::to_string(result->element.content), "<html>v2</html>");
}

TEST_F(TcpStackFixture, ConcurrentClientsVerifyIndependently) {
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, &ok] {
      net::TcpTransport transport;
      GlobeDocProxy proxy(transport, proxy_config());
      for (int i = 0; i < 5; ++i) {
        auto result = proxy.fetch("tcp.vu.nl", "index.html");
        if (result.is_ok()) ok.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), 20);
}

TEST_F(TcpStackFixture, UnpublishOverRealSockets) {
  ASSERT_TRUE(owner
                  ->unpublish_replica(owner_transport, port_ep(object_tcp->port()),
                                      port_ep(site_tcp->port()))
                  .is_ok());
  net::TcpTransport transport;
  GlobeDocProxy proxy(transport, proxy_config());
  EXPECT_EQ(proxy.fetch("tcp.vu.nl", "index.html").code(), ErrorCode::kNotFound);
}


TEST_F(TcpStackFixture, BrowserThroughProxyOverRealSockets) {
  // The complete Fig. 3 wire path on real sockets: browser -> (HTTP/TCP) ->
  // user proxy -> (RPC/TCP) -> naming/location/replica.
  auto proxy_transport = std::make_unique<net::TcpTransport>();
  auto& transport_ref = *proxy_transport;
  auto proxy = std::make_unique<GlobeDocProxy>(transport_ref, proxy_config());
  // Keep the transport alive alongside the proxy front end.
  ProxyHttpServer front(std::move(proxy));
  net::TcpServer proxy_tcp(0, front.handler(), /*workers=*/1);

  net::TcpTransport browser_transport;
  http::HttpClient browser(browser_transport);
  auto resp = browser.get(port_ep(proxy_tcp.port()), "/globe/tcp.vu.nl/index.html");
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(util::to_string(resp->body), "<html>tcp</html>");
  EXPECT_EQ(resp->headers.get("Via"), "1.1 globedoc-proxy");

  auto missing = browser.get(port_ep(proxy_tcp.port()), "/globe/tcp.vu.nl/ghost");
  ASSERT_TRUE(missing.is_ok());
  EXPECT_EQ(missing->status, 404);
}

TEST_F(TcpStackFixture, WarmLargeFetchHoldsTheElementInTwoBuffers) {
  // One 256 KB element fetched the way bench_live's warm_large fetches it:
  // an HttpClient browser -> TcpServer with ProxyHttpServer -> TcpServer with
  // ObjectServer, the proxy's binding cached by an earlier fetch.  The
  // element is held whole once where the proxy reads the replica's reply
  // and once where the browser reads the proxy's; nothing in between copies
  // it.
  Bytes content(256 * 1024);
  for (std::size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<std::uint8_t>(i * 131 + (i >> 9));
  }
  owner->object().put_element({"large.bin", "application/octet-stream", content});
  ASSERT_TRUE(owner
                  ->refresh_replicas(owner_transport, util::RealClock().now(),
                                     util::seconds(600))
                  .is_ok());
  net::TcpTransport proxy_transport;
  ProxyConfig config = proxy_config();
  config.cache_bindings = true;
  ProxyHttpServer front(std::make_unique<GlobeDocProxy>(proxy_transport, config));
  net::TcpServer proxy_tcp(0, front.handler(), /*workers=*/2);
  net::TcpTransport browser_transport;
  http::HttpClient browser(browser_transport);
  const std::string url = "/globe/tcp.vu.nl/large.bin";
  auto cold = browser.get(port_ep(proxy_tcp.port()), url);
  ASSERT_TRUE(cold.is_ok()) << cold.status().to_string();
  ASSERT_EQ(cold->status, 200);

  g_large_allocations.store(0);
  g_count_large.store(true);
  auto warm = browser.get(port_ep(proxy_tcp.port()), url);
  g_count_large.store(false);

  ASSERT_TRUE(warm.is_ok()) << warm.status().to_string();
  EXPECT_EQ(warm->status, 200);
  EXPECT_EQ(warm->body, content);
  EXPECT_LE(g_large_allocations.load(), 2) << "allocations of 128 KB or more";
}

}  // namespace
}  // namespace globe::globedoc
