#include "http/static_server.hpp"

#include <stdexcept>

#include "crypto/sha1.hpp"
#include "obs/profile.hpp"

namespace globe::http {

using util::Bytes;
using util::BytesView;
using util::Result;

StaticHttpServer::StaticHttpServer(std::string server_name,
                                   obs::MetricsRegistry* registry)
    : server_name_(std::move(server_name)),
      registry_(registry != nullptr ? registry : &obs::global_registry()) {
  obs::Labels labels{{"server", server_name_}};
  requests_counter_ = &registry_->counter("http.static.requests", labels);
  bytes_counter_ = &registry_->counter("http.static.bytes_served", labels);
}

void StaticHttpServer::put_file(const std::string& path, Bytes content) {
  if (path.empty() || path[0] != '/') {
    throw std::invalid_argument("put_file: path must start with '/'");
  }
  FileEntry entry;
  entry.content_type = guess_content_type(path);
  entry.etag = "\"" + util::hex_encode(crypto::Sha1::digest_bytes(content)).substr(0, 16) + "\"";
  entry.content = std::move(content);
  util::LockGuard lock(mutex_);
  files_[path] = std::move(entry);
}

void StaticHttpServer::remove_file(const std::string& path) {
  util::LockGuard lock(mutex_);
  files_.erase(path);
}

bool StaticHttpServer::has_file(const std::string& path) const {
  util::LockGuard lock(mutex_);
  return files_.count(path) > 0;
}

std::size_t StaticHttpServer::file_count() const {
  util::LockGuard lock(mutex_);
  return files_.size();
}

HttpResponse StaticHttpServer::handle(const HttpRequest& req) const {
  GLOBE_PROFILE_SCOPE("http.static.handle");
  HttpResponse resp;
  if (req.method != "GET" && req.method != "HEAD") {
    resp = HttpResponse::make(405, reason_for_status(405),
                              util::to_bytes("<html><body>405</body></html>"));
    resp.headers.set("Allow", "GET, HEAD");
  } else {
    // Strip any query string.
    std::string path = req.target.substr(0, req.target.find('?'));
    util::LockGuard lock(mutex_);
    auto it = files_.find(path);
    if (it == files_.end()) {
      resp = HttpResponse::make(
          404, reason_for_status(404),
          util::to_bytes("<html><body>404 Not Found: " + path + "</body></html>"));
    } else if (auto inm = req.headers.get("If-None-Match");
               inm && *inm == it->second.etag) {
      resp.status = 304;
      resp.reason = reason_for_status(304);
      resp.headers.set("ETag", it->second.etag);
    } else {
      resp = HttpResponse::make(200, "OK", it->second.content,
                                it->second.content_type);
      resp.headers.set("ETag", it->second.etag);
      if (req.method == "HEAD") resp.body.clear();
    }
  }
  resp.headers.set("Server", server_name_);
  requests_counter_->inc();
  bytes_counter_->inc(resp.body.size());
  registry_
      ->counter("http.static.responses", {{"server", server_name_},
                                          {"status", std::to_string(resp.status)}})
      .inc();
  return resp;
}

net::MessageHandler StaticHttpServer::handler() {
  return [this](net::ServerContext&, BytesView raw) -> Result<Bytes> {
    auto req = parse_request(raw);
    if (!req.is_ok()) {
      HttpResponse bad = HttpResponse::make(
          400, reason_for_status(400),
          util::to_bytes("<html><body>400 Bad Request</body></html>"));
      bad.headers.set("Server", server_name_);
      return bad.serialize();
    }
    return handle(*req).serialize();
  };
}

}  // namespace globe::http
