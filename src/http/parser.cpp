#include "http/parser.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace globe::http {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

constexpr std::string_view kCrlf = "\r\n";

std::string_view as_view(BytesView b) {
  return std::string_view(reinterpret_cast<const char*>(b.data()), b.size());
}

bool is_token_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) ||
         std::string_view("!#$%&'*+-.^_`|~").find(c) != std::string_view::npos;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

bool iequals(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
}

struct ParsedHead {
  std::string start_line;
  Headers headers;
  std::size_t body_offset = 0;  // offset of body within the original data
};

Result<ParsedHead> parse_head(std::string_view text) {
  std::size_t head_end = text.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    return Result<ParsedHead>(ErrorCode::kProtocol, "missing header terminator");
  }
  ParsedHead out;
  out.body_offset = head_end + 4;

  std::string_view head = text.substr(0, head_end);
  std::size_t line_end = head.find(kCrlf);
  if (line_end == std::string_view::npos) line_end = head.size();
  out.start_line = std::string(head.substr(0, line_end));
  if (out.start_line.empty()) {
    return Result<ParsedHead>(ErrorCode::kProtocol, "empty start line");
  }

  std::size_t pos = line_end;
  while (pos < head.size()) {
    pos += 2;  // skip CRLF
    std::size_t next = head.find(kCrlf, pos);
    if (next == std::string_view::npos) next = head.size();
    std::string_view line = head.substr(pos, next - pos);
    pos = next;
    if (line.empty()) continue;
    std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Result<ParsedHead>(ErrorCode::kProtocol,
                                "malformed header line: " + std::string(line));
    }
    std::string_view name = line.substr(0, colon);
    for (char c : name) {
      if (!is_token_char(c)) {
        return Result<ParsedHead>(ErrorCode::kProtocol, "bad header name");
      }
    }
    out.headers.add(std::string(name), std::string(trim(line.substr(colon + 1))));
  }
  return out;
}

Result<Bytes> decode_chunked(std::string_view body) {
  Bytes out;
  std::size_t pos = 0;
  for (;;) {
    std::size_t line_end = body.find(kCrlf, pos);
    if (line_end == std::string_view::npos) {
      return Result<Bytes>(ErrorCode::kProtocol, "chunked: missing size line");
    }
    std::string_view size_str = body.substr(pos, line_end - pos);
    // Chunk extensions (";...") are permitted and ignored.
    std::size_t semi = size_str.find(';');
    if (semi != std::string_view::npos) size_str = size_str.substr(0, semi);
    std::size_t chunk_size = 0;
    auto [p, ec] = std::from_chars(size_str.data(), size_str.data() + size_str.size(),
                                   chunk_size, 16);
    if (ec != std::errc() || p != size_str.data() + size_str.size() ||
        size_str.empty()) {
      return Result<Bytes>(ErrorCode::kProtocol, "chunked: bad size");
    }
    pos = line_end + 2;
    if (chunk_size == 0) break;
    // Overflow-safe bound: attacker-controlled sizes near SIZE_MAX must not
    // wrap `pos + chunk_size` past the buffer check.
    if (chunk_size > body.size() || pos + chunk_size + 2 > body.size()) {
      return Result<Bytes>(ErrorCode::kProtocol, "chunked: truncated chunk");
    }
    out.insert(out.end(), body.begin() + static_cast<std::ptrdiff_t>(pos),
               body.begin() + static_cast<std::ptrdiff_t>(pos + chunk_size));
    if (body.substr(pos + chunk_size, 2) != kCrlf) {
      return Result<Bytes>(ErrorCode::kProtocol, "chunked: missing chunk CRLF");
    }
    pos += chunk_size + 2;
  }
  return out;
}

bool is_chunked(const ParsedHead& head) {
  auto te = head.headers.get("Transfer-Encoding");
  return te && iequals(trim(*te), "chunked");
}

/// The body of a message that is not chunked, where it lies in `text`.
Result<std::string_view> framed_body(const ParsedHead& head, std::string_view text) {
  std::string_view body = text.substr(head.body_offset);
  if (auto cl = head.headers.get("Content-Length")) {
    std::size_t n = 0;
    auto [p, ec] = std::from_chars(cl->data(), cl->data() + cl->size(), n);
    if (ec != std::errc() || p != cl->data() + cl->size()) {
      return Result<std::string_view>(ErrorCode::kProtocol, "bad Content-Length");
    }
    if (body.size() < n) {
      return Result<std::string_view>(ErrorCode::kProtocol,
                                      "body shorter than Content-Length");
    }
    body = body.substr(0, n);
  }
  return body;
}

Result<Bytes> extract_body(const ParsedHead& head, std::string_view text) {
  if (is_chunked(head)) return decode_chunked(text.substr(head.body_offset));
  auto body = framed_body(head, text);
  if (!body.is_ok()) return body.status();
  return Bytes(body->begin(), body->end());
}

/// extract_body, but a body that is not chunked keeps `data`'s buffer: the
/// head is dropped in place.
Result<Bytes> take_body(const ParsedHead& head, Bytes&& data) {
  if (is_chunked(head)) return extract_body(head, as_view(data));
  auto body = framed_body(head, as_view(data));
  if (!body.is_ok()) return body.status();
  const std::size_t n = body->size();
  data.erase(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(head.body_offset));
  data.resize(n);
  return std::move(data);
}

/// A parsed response's status line and headers; the caller adds the body.
Result<HttpResponse> response_head(const ParsedHead& head) {
  HttpResponse resp;
  std::string_view line = head.start_line;
  std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos || line.substr(0, 5) != "HTTP/") {
    return Result<HttpResponse>(ErrorCode::kProtocol, "bad status line");
  }
  resp.version = std::string(line.substr(0, sp1));
  std::size_t sp2 = line.find(' ', sp1 + 1);
  std::string_view code = line.substr(sp1 + 1, sp2 == std::string::npos
                                                   ? std::string::npos
                                                   : sp2 - sp1 - 1);
  int status = 0;
  auto [p, ec] = std::from_chars(code.data(), code.data() + code.size(), status);
  if (ec != std::errc() || p != code.data() + code.size() || status < 100 ||
      status > 599) {
    return Result<HttpResponse>(ErrorCode::kProtocol, "bad status code");
  }
  resp.status = status;
  resp.reason = sp2 == std::string::npos ? "" : std::string(line.substr(sp2 + 1));
  resp.headers = head.headers;
  return resp;
}

}  // namespace

Result<HttpRequest> parse_request(BytesView data) {
  auto head = parse_head(as_view(data));
  if (!head.is_ok()) return head.status();

  HttpRequest req;
  std::string_view line = head->start_line;
  std::size_t sp1 = line.find(' ');
  std::size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                             : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    return Result<HttpRequest>(ErrorCode::kProtocol, "bad request line");
  }
  req.method = std::string(line.substr(0, sp1));
  req.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  req.version = std::string(line.substr(sp2 + 1));
  if (req.method.empty() || req.target.empty() ||
      req.version.substr(0, 5) != "HTTP/") {
    return Result<HttpRequest>(ErrorCode::kProtocol, "bad request line");
  }
  for (char c : req.method) {
    if (!is_token_char(c)) {
      return Result<HttpRequest>(ErrorCode::kProtocol, "bad method token");
    }
  }
  req.headers = head->headers;
  auto body = extract_body(*head, as_view(data));
  if (!body.is_ok()) return body.status();
  req.body = std::move(*body);
  return req;
}

Result<HttpResponse> parse_response(BytesView data) {
  auto head = parse_head(as_view(data));
  if (!head.is_ok()) return head.status();
  auto resp = response_head(*head);
  if (!resp.is_ok()) return resp;
  auto body = extract_body(*head, as_view(data));
  if (!body.is_ok()) return body.status();
  resp->body = std::move(*body);
  return resp;
}

Result<HttpResponse> parse_response(Bytes&& data) {
  auto head = parse_head(as_view(data));  // copies what it keeps
  if (!head.is_ok()) return head.status();
  auto resp = response_head(*head);
  if (!resp.is_ok()) return resp;
  auto body = take_body(*head, std::move(data));
  if (!body.is_ok()) return body.status();
  resp->body = std::move(*body);
  return resp;
}

Status MessageFramer::feed(BytesView data) {
  if (buffer_.size() + data.size() > max_message_) {
    return Status(ErrorCode::kProtocol, "message exceeds size limit");
  }
  util::append(buffer_, data);
  return try_extract();
}

Status MessageFramer::try_extract() {
  for (;;) {
    std::string_view text = as_view(buffer_);
    std::size_t head_end = text.find("\r\n\r\n");
    if (head_end == std::string_view::npos) return Status::ok();

    auto head = parse_head(text);
    if (!head.is_ok()) return head.status();

    std::size_t total;
    if (auto te = head->headers.get("Transfer-Encoding");
        te && iequals(trim(*te), "chunked")) {
      // Scan chunks to find the message end.
      std::size_t pos = head->body_offset;
      bool complete = false;
      for (;;) {
        std::size_t line_end = text.find("\r\n", pos);
        if (line_end == std::string_view::npos) break;
        std::size_t chunk_size = 0;
        std::string_view size_str = text.substr(pos, line_end - pos);
        std::size_t semi = size_str.find(';');
        if (semi != std::string_view::npos) size_str = size_str.substr(0, semi);
        auto [p, ec] = std::from_chars(
            size_str.data(), size_str.data() + size_str.size(), chunk_size, 16);
        if (ec != std::errc() || size_str.empty() ||
            p != size_str.data() + size_str.size()) {
          return Status(ErrorCode::kProtocol, "chunked framing: bad size");
        }
        // Reject sizes that could wrap the position arithmetic or exceed the
        // framer's limit outright; otherwise a wrapped `pos` rescans earlier
        // buffer content and can spin forever.
        if (chunk_size > max_message_) {
          return Status(ErrorCode::kProtocol, "chunked framing: chunk too large");
        }
        pos = line_end + 2 + chunk_size + 2;
        if (chunk_size == 0) {
          // "0\r\n" is followed by the terminating "\r\n" (no chunk data).
          complete = pos <= text.size();
          break;
        }
        if (pos > text.size()) break;
      }
      if (!complete) return Status::ok();
      total = pos;
    } else if (auto cl = head->headers.get("Content-Length")) {
      std::size_t n = 0;
      auto [p, ec] = std::from_chars(cl->data(), cl->data() + cl->size(), n);
      if (ec != std::errc() || p != cl->data() + cl->size()) {
        return Status(ErrorCode::kProtocol, "bad Content-Length");
      }
      if (n > max_message_) {
        return Status(ErrorCode::kProtocol, "declared body exceeds size limit");
      }
      total = head->body_offset + n;
      if (buffer_.size() < total) return Status::ok();
    } else {
      total = head->body_offset;  // no body
    }

    complete_.emplace_back(buffer_.begin(),
                           buffer_.begin() + static_cast<std::ptrdiff_t>(total));
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(total));
  }
}

Bytes MessageFramer::take_message() {
  if (complete_.empty()) throw std::logic_error("MessageFramer: no message");
  Bytes msg = std::move(complete_.front());
  complete_.erase(complete_.begin());
  return msg;
}

}  // namespace globe::http
