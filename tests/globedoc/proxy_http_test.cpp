// Browser -> proxy over HTTP: the full Fig. 3 wire path.
#include "globedoc/proxy_http.hpp"

#include <gtest/gtest.h>

#include "http/client.hpp"
#include "http/static_server.hpp"
#include "tests/globedoc/world_fixture.hpp"

namespace globe::globedoc {
namespace {

using globe::globedoc::testing::WorldFixture;
using util::to_bytes;

struct ProxyHttpFixture : WorldFixture {
  void SetUp() override {
    WorldFixture::SetUp();
    // The user proxy runs on the client host with its own flow; the
    // "browser" talks to it over HTTP on port 3128.
    proxy_flow = net.open_flow(client_host);
    ProxyConfig config = proxy_config();
    config.registry = &registry;
    auto proxy = std::make_unique<GlobeDocProxy>(*proxy_flow, config);
    front = std::make_unique<ProxyHttpServer>(std::move(proxy));
    proxy_ep = net::Endpoint{client_host, 3128};
    net.bind(proxy_ep, front->handler());
    browser_flow = net.open_flow(client_host);
  }

  /// Browser requests that reached the proxy, as its proxy.fetches series
  /// counts them.
  std::uint64_t proxy_fetches() {
    return registry.counter("proxy.fetches", {{"outcome", "ok"}}).value() +
           registry.counter("proxy.fetches", {{"outcome", "error"}}).value();
  }

  obs::MetricsRegistry registry;
  std::unique_ptr<net::SimFlow> proxy_flow, browser_flow;
  std::unique_ptr<ProxyHttpServer> front;
  net::Endpoint proxy_ep;
};

TEST_F(ProxyHttpFixture, BrowserFetchesHybridUrlThroughProxy) {
  http::HttpClient browser(*browser_flow);
  auto resp = browser.get(proxy_ep, "/globe/news.vu.nl/index.html");
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(util::to_string(resp->body), "<html><body>news story</body></html>");
  EXPECT_EQ(resp->headers.get("X-GlobeDoc-Certified-As"), "Vrije Universiteit");
  EXPECT_EQ(resp->headers.get("Via"), "1.1 globedoc-proxy");
  EXPECT_EQ(proxy_fetches(), 1u);
}

TEST_F(ProxyHttpFixture, SecurityFailureRendersErrorPage) {
  browser_flow->advance(util::seconds(4000));  // certificate now expired
  proxy_flow->advance(util::seconds(4000));
  http::HttpClient browser(*browser_flow);
  auto resp = browser.get(proxy_ep, "/globe/news.vu.nl/index.html");
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 403);
  EXPECT_NE(util::to_string(resp->body).find("Security Check Failed"),
            std::string::npos);
}

TEST_F(ProxyHttpFixture, ErrorPageEscapesReflectedText) {
  // The failure page echoes the error description, which can embed
  // attacker-chosen text (here the requested element name, reflected by the
  // server's "no element '...'"); it must come out HTML-escaped so the
  // paper's "Security Check Failed" document can never become script
  // injection at the browser.
  http::HttpClient browser(*browser_flow);
  auto resp =
      browser.get(proxy_ep, "/globe/news.vu.nl/<script>alert(1)</script>");
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 404);
  std::string body = util::to_string(resp->body);
  EXPECT_EQ(body.find("<script"), std::string::npos) << body;
  EXPECT_NE(body.find("&lt;script"), std::string::npos) << body;
}

TEST_F(ProxyHttpFixture, PlainUrlsPassThroughToOrigin) {
  http::StaticHttpServer origin;
  origin.put_file("/legacy.html", to_bytes("<html>old web</html>"));
  net::Endpoint origin_ep{infra_host, 8080};
  net.bind(origin_ep, origin.handler());
  front->proxy().set_origin_fallback(origin_ep);

  http::HttpClient browser(*browser_flow);
  auto resp = browser.get(proxy_ep, "/legacy.html");
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(util::to_string(resp->body), "<html>old web</html>");
}

TEST_F(ProxyHttpFixture, MalformedBrowserRequestGets400) {
  auto raw = browser_flow->call(proxy_ep, to_bytes("NOT HTTP AT ALL"));
  ASSERT_TRUE(raw.is_ok());
  auto resp = http::parse_response(*raw);
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 400);
  EXPECT_EQ(proxy_fetches(), 0u);  // rejected before the proxy ran
}

TEST_F(ProxyHttpFixture, WholePageLoadThroughProxy) {
  // A "browser" loading the document and its subresources.
  http::HttpClient browser(*browser_flow);
  for (const char* path : {"/globe/news.vu.nl/index.html",
                           "/globe/news.vu.nl/logo.gif",
                           "/globe/news.vu.nl/story.txt"}) {
    auto resp = browser.get(proxy_ep, path);
    ASSERT_TRUE(resp.is_ok()) << path;
    EXPECT_EQ(resp->status, 200) << path;
  }
  EXPECT_EQ(proxy_fetches(), 3u);
}

}  // namespace
}  // namespace globe::globedoc
