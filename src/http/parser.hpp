// Strict HTTP/1.1 parsing with bounds checking — requests can arrive from
// untrusted peers, so every length and character class is validated.
// Supports Content-Length framing and chunked transfer decoding.
#pragma once

#include "http/message.hpp"
#include "util/status.hpp"
#include "util/bounds_annotations.hpp"

namespace globe::http {

/// Parses a complete request message (start line + headers + body).
util::Result<HttpRequest> parse_request(util::BytesView data);

/// Parses a complete response message.
util::Result<HttpResponse> parse_response(util::BytesView data);
/// The same, but a body that is not chunked keeps `data`'s buffer instead
/// of being copied out of it.
util::Result<HttpResponse> parse_response(util::Bytes&& data);

/// Incremental framer for stream transports: feed() bytes until a full
/// message is buffered, then take_message() yields its raw bytes.
class MessageFramer {
 public:
  /// Appends stream data.  Returns PROTOCOL on irrecoverably bad framing.
  util::Status feed(util::BytesView data);

  /// True once at least one complete message is buffered.
  bool has_message() const { return !complete_.empty(); }

  /// Pops the earliest complete raw message.  Throws std::logic_error when
  /// none is available.
  util::Bytes take_message();

  /// Upper bound on buffered bytes (DoS guard); default 64 MiB.
  void set_max_message(std::size_t n) { max_message_ = n; }

 private:
  util::Status try_extract();

  util::Bytes buffer_;
  std::vector<util::Bytes> complete_ GLOBE_BOUNDED;
  std::size_t max_message_ = 64u * 1024 * 1024;
};

}  // namespace globe::http
