#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "util/serial.hpp"

namespace globe::net {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Result;

namespace {

// Returns false on EOF/error.
bool read_exact(int fd, std::uint8_t* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

constexpr std::size_t kMaxFrame = 64 * 1024 * 1024;
/// A frame up to this size is read into one buffer sized up front.  A
/// larger announced length grows the buffer by at most this much per read,
/// so a peer that announces a huge frame and goes silent holds at most one
/// step more memory than it has sent.
constexpr std::size_t kFrameStep = 1024 * 1024;

std::size_t frame_length(const std::uint8_t* len) {
  return std::size_t{len[0]} << 24 | std::size_t{len[1]} << 16 |
         std::size_t{len[2]} << 8 | len[3];
}

/// Reads the next n bytes of a frame into `out`, growing it by at most
/// kFrameStep per read.
bool read_payload(int fd, std::size_t n, Bytes& out) {
  out.clear();
  while (out.size() < n) {
    std::size_t have = out.size();
    out.resize(have + std::min(n - have, kFrameStep));
    if (!read_exact(fd, out.data() + have, out.size() - have)) return false;
  }
  return true;
}

}  // namespace

bool send_frame(int fd, std::span<const BytesView> parts) {
  if (parts.size() > kMaxFrameParts) {
    throw std::invalid_argument("send_frame: too many parts");
  }
  std::size_t total = 0;
  for (BytesView part : parts) total += part.size();
  std::uint8_t len[4] = {
      static_cast<std::uint8_t>(total >> 24),
      static_cast<std::uint8_t>(total >> 16),
      static_cast<std::uint8_t>(total >> 8),
      static_cast<std::uint8_t>(total),
  };
  std::array<iovec, 1 + kMaxFrameParts> iov;
  std::size_t count = 0;
  iov[count++] = {len, sizeof len};
  for (BytesView part : parts) {
    if (!part.empty()) iov[count++] = {const_cast<std::uint8_t*>(part.data()), part.size()};
  }
  // The header and every part leave in one sendmsg, so the peer wakes once
  // per frame; a short write is resumed where it stopped.
  iovec* next = iov.data();
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = count;
    ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r <= 0) return false;
    auto sent = static_cast<std::size_t>(r);
    while (count > 0 && sent >= next->iov_len) {
      sent -= next->iov_len;
      ++next;
      --count;
    }
    if (count > 0) {
      next->iov_base = static_cast<std::uint8_t*>(next->iov_base) + sent;
      next->iov_len -= sent;
    }
  }
  return true;
}

bool recv_frame(int fd, Bytes& out) {
  std::uint8_t len[4];
  if (!read_exact(fd, len, 4)) return false;
  std::size_t n = frame_length(len);
  return n <= kMaxFrame && read_payload(fd, n, out);
}

namespace {

/// Wall-clock server context for live handlers.
class TcpServerContext final : public ServerContext {
 public:
  explicit TcpServerContext(Transport& nested) : nested_(nested) {}
  util::SimTime now() const override { return clock_.now(); }
  void charge(CpuOp, std::uint64_t) override {}
  HostId local_host() const override { return HostId{0}; }
  Transport& transport() override { return nested_; }

 private:
  util::RealClock clock_;
  Transport& nested_;
};

}  // namespace

TcpServer::TcpServer(std::uint16_t port, MessageHandler handler, std::size_t workers)
    : handler_(std::move(handler)), pool_(workers) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("TcpServer: socket() failed");
  int yes = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof(yes));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("TcpServer: bind() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("TcpServer: listen() failed");
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();
  pool_.wait_idle();
}

void TcpServer::accept_loop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      continue;
    }
    pool_.submit([this, fd] { serve_connection(fd); });
  }
}

void TcpServer::serve_connection(int fd) {
  int yes = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof(yes));
  static constexpr std::uint8_t kOk = 1;
  Bytes request;
  while (!stopping_.load() && recv_frame(fd, request)) {
    TcpTransport nested;
    TcpServerContext ctx(nested);
    Result<Reply> result(ErrorCode::kInternal, "handler did not run");
    try {
      result = handler_(ctx, request);
    } catch (const std::exception& e) {
      result = Result<Reply>(ErrorCode::kInternal,
                             std::string("handler threw: ") + e.what());
    }
    bool sent;
    if (result.is_ok()) {
      const BytesView parts[] = {BytesView(&kOk, 1), result->head(), result->tail()};
      sent = send_frame(fd, parts);
    } else {
      util::Writer w;
      w.u8(0);
      w.u8(static_cast<std::uint8_t>(result.status().code()));
      w.str(result.status().message());
      sent = send_frame(fd, w.buffer());
    }
    if (!sent) break;
  }
  ::close(fd);
}

TcpTransport::~TcpTransport() { reset_connections(); }

void TcpTransport::reset_connections() {
  for (auto& [port, fd] : connections_) ::close(fd);
  connections_.clear();
}

int TcpTransport::connect_to(std::uint16_t port) {
  auto it = connections_.find(port);
  if (it != connections_.end()) return it->second;

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int yes = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof(yes));
  connections_[port] = fd;
  return fd;
}

Result<Bytes> TcpTransport::call(const Endpoint& ep, BytesView request) {
  int fd = connect_to(ep.port);
  if (fd < 0) {
    return Result<Bytes>(ErrorCode::kUnavailable,
                         "cannot connect to port " + std::to_string(ep.port));
  }
  auto drop = [&](ErrorCode code, const char* why) {
    connections_.erase(ep.port);
    ::close(fd);
    return Result<Bytes>(code, why);
  };
  constexpr auto kClosed = ErrorCode::kUnavailable;
  if (!send_frame(fd, request)) return drop(kClosed, "send failed");
  // The length and the status byte in one read, so an OK payload is read
  // into the buffer that is returned.  A reply frame always holds the
  // status byte: an empty one has put the stream out of step.
  std::uint8_t head[5];
  if (!read_exact(fd, head, sizeof head)) return drop(kClosed, "connection closed by peer");
  std::size_t n = frame_length(head);
  if (n == 0) return drop(ErrorCode::kProtocol, "empty reply frame");
  Bytes payload;
  if (n > kMaxFrame || !read_payload(fd, n - 1, payload)) {
    return drop(kClosed, "connection closed by peer");
  }
  if (head[4] == 1) return payload;
  try {
    util::Reader r(payload);
    auto code = static_cast<ErrorCode>(r.u8());
    return Result<Bytes>(code, r.str());
  } catch (const util::SerialError& e) {
    return Result<Bytes>(ErrorCode::kProtocol, e.what());
  }
}

}  // namespace globe::net
