#include "http/message.hpp"

#include <algorithm>
#include <cctype>

namespace globe::http {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
}

void append_str(util::Bytes& out, std::string_view s) {
  out.insert(out.end(), s.begin(), s.end());
}

/// The message up to its body: start line, headers (with a Content-Length
/// for `body` unless one is set) and the blank line.  `reserve` extra bytes
/// are set aside for whatever the caller appends.
util::Bytes serialize_head(std::string_view start_line, const Headers& headers,
                           const util::Bytes& body, std::size_t reserve) {
  util::Bytes out;
  out.reserve(start_line.size() + 256 + reserve);
  append_str(out, start_line);
  append_str(out, "\r\n");
  bool has_content_length = headers.has("Content-Length");
  for (const auto& [name, value] : headers.all()) {
    append_str(out, name);
    append_str(out, ": ");
    append_str(out, value);
    append_str(out, "\r\n");
  }
  if (!has_content_length && !body.empty()) {
    append_str(out, "Content-Length: " + std::to_string(body.size()) + "\r\n");
  }
  append_str(out, "\r\n");
  return out;
}

util::Bytes serialize_common(std::string_view start_line, const Headers& headers,
                             const util::Bytes& body) {
  util::Bytes out = serialize_head(start_line, headers, body, body.size());
  util::append(out, body);
  return out;
}

std::string status_line(const HttpResponse& r) {
  return r.version + " " + std::to_string(r.status) + " " + r.reason;
}

}  // namespace

void Headers::set(std::string name, std::string value) {
  for (auto& [n, v] : entries_) {
    if (iequals(n, name)) {
      v = std::move(value);
      return;
    }
  }
  entries_.emplace_back(std::move(name), std::move(value));
}

void Headers::add(std::string name, std::string value) {
  entries_.emplace_back(std::move(name), std::move(value));
}

std::optional<std::string> Headers::get(std::string_view name) const {
  for (const auto& [n, v] : entries_) {
    if (iequals(n, name)) return v;
  }
  return std::nullopt;
}

util::Bytes HttpRequest::serialize() const {
  return serialize_common(method + " " + target + " " + version, headers, body);
}

util::Bytes HttpResponse::serialize() const {
  return serialize_common(status_line(*this), headers, body);
}

util::Bytes HttpResponse::serialize_head() const {
  return http::serialize_head(status_line(*this), headers, body, 0);
}

HttpResponse HttpResponse::make(int status, std::string reason, util::Bytes body,
                                std::string content_type) {
  HttpResponse resp;
  resp.status = status;
  resp.reason = std::move(reason);
  resp.body = std::move(body);
  resp.headers.set("Content-Type", std::move(content_type));
  resp.headers.set("Content-Length", std::to_string(resp.body.size()));
  return resp;
}

std::string reason_for_status(int status) {
  switch (status) {
    case 200: return "OK";
    case 301: return "Moved Permanently";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string guess_content_type(std::string_view path) {
  auto ends_with = [&](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.substr(path.size() - suffix.size()) == suffix;
  };
  if (ends_with(".html") || ends_with(".htm")) return "text/html";
  if (ends_with(".txt")) return "text/plain";
  if (ends_with(".gif")) return "image/gif";
  if (ends_with(".jpg") || ends_with(".jpeg")) return "image/jpeg";
  if (ends_with(".png")) return "image/png";
  if (ends_with(".class") || ends_with(".jar")) return "application/java";
  if (ends_with(".css")) return "text/css";
  if (ends_with(".js")) return "application/javascript";
  if (ends_with(".mp3") || ends_with(".wav")) return "audio/mpeg";
  if (ends_with(".mpg") || ends_with(".avi")) return "video/mpeg";
  return "application/octet-stream";
}

}  // namespace globe::http
