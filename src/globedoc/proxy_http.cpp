#include "globedoc/proxy_http.hpp"

#include "http/parser.hpp"

namespace globe::globedoc {

using util::Bytes;
using util::BytesView;
using util::Result;

ProxyHttpServer::ProxyHttpServer(std::unique_ptr<GlobeDocProxy> proxy)
    : proxy_(std::move(proxy)) {}

net::MessageHandler ProxyHttpServer::handler() {
  return [this](net::ServerContext&, BytesView raw) -> Result<net::Reply> {
    auto request = http::parse_request(raw);
    http::HttpResponse response;
    if (!request.is_ok()) {
      response = http::HttpResponse::make(
          400, "Bad Request",
          util::to_bytes("<html><body>400 Bad Request</body></html>"));
    } else {
      util::LockGuard lock(mutex_);
      response = proxy_->handle_browser_request(*request);
    }
    response.headers.set("Via", "1.1 globedoc-proxy");
    // The head and the body leave as the reply's two parts, so the body (a
    // verified element's content) is not copied behind the head.
    Bytes head = response.serialize_head();
    auto body = std::make_shared<const Bytes>(std::move(response.body));
    BytesView tail = *body;
    return net::Reply(std::move(head), tail, std::move(body));
  };
}

}  // namespace globe::globedoc
