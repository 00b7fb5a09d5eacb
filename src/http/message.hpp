// HTTP/1.1 message model.  Used by the Apache-style baseline server, the
// SSL-like secure channel, and the GlobeDoc proxy's browser-facing side.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.hpp"

namespace globe::http {

/// Ordered header list; lookups are case-insensitive per RFC 7230.
class Headers {
 public:
  void set(std::string name, std::string value);
  void add(std::string name, std::string value);
  std::optional<std::string> get(std::string_view name) const;
  bool has(std::string_view name) const { return get(name).has_value(); }
  const std::vector<std::pair<std::string, std::string>>& all() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

struct HttpRequest {
  std::string method = "GET";
  std::string target = "/";
  std::string version = "HTTP/1.1";
  Headers headers;
  util::Bytes body;

  /// Serializes to wire form (sets Content-Length when a body is present).
  util::Bytes serialize() const;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::string version = "HTTP/1.1";
  Headers headers;
  util::Bytes body;

  util::Bytes serialize() const;
  /// serialize() without the body, which a caller sends after it.
  util::Bytes serialize_head() const;

  static HttpResponse make(int status, std::string reason, util::Bytes body,
                           std::string content_type = "text/html");
};

/// Standard reason phrase for common status codes ("Not Found", ...).
std::string reason_for_status(int status);

/// Guesses a Content-Type from a path suffix (the small table Apache-era
/// servers shipped: html, txt, gif, jpg, png, class, ...).
std::string guess_content_type(std::string_view path);

}  // namespace globe::http
