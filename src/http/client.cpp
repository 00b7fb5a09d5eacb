#include "http/client.hpp"

#include "http/parser.hpp"

namespace globe::http {

using util::Result;

Result<HttpResponse> HttpClient::get(const net::Endpoint& ep, const std::string& path) {
  HttpRequest req;
  req.method = "GET";
  req.target = path;
  req.headers.set("Host", ep.to_string());
  req.headers.set("User-Agent", "globedoc-wget/1.0");
  return request(ep, req);
}

Result<HttpResponse> HttpClient::request(const net::Endpoint& ep,
                                         const HttpRequest& req) {
  auto raw = transport_->call(ep, req.serialize());
  if (!raw.is_ok()) return raw.status();
  return parse_response(std::move(*raw));  // the body keeps the frame's buffer
}

}  // namespace globe::http
