// Live TCP loopback transport implementing the same Transport /
// MessageHandler contract as the simulator, so examples and integration
// tests can run the identical protocol stack over real sockets.
//
// Framing: every message is a u32 (big-endian) length followed by that many
// bytes.  Responses add a one-byte OK flag; failures carry an ErrorCode byte
// plus a UTF-8 message.  Endpoints use the port only (host 127.0.0.1).
// A server writes a reply's status byte, head and tail straight from where
// they lie, and a client reads the status byte with the length, so an OK
// payload lands in the buffer call() returns.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>

#include "net/transport.hpp"
#include "util/thread_pool.hpp"
#include "util/thread_annotations.hpp"

namespace globe::net {

/// Most parts one frame's payload may be gathered from.
inline constexpr std::size_t kMaxFrameParts = 7;

/// Writes one frame to a connected blocking socket.  The payload is the
/// concatenation of `parts`: the length header and every part go out in one
/// sendmsg, and a short write is finished with further ones.  Returns false
/// on error; throws std::invalid_argument beyond kMaxFrameParts parts.
GLOBE_BLOCKING bool send_frame(int fd, std::span<const util::BytesView> parts);
/// A frame whose payload is one buffer.
GLOBE_BLOCKING inline bool send_frame(int fd, util::BytesView payload) {
  return send_frame(fd, std::span<const util::BytesView>(&payload, 1));
}
/// Reads one frame into `out`.  Returns false on EOF, error, or an
/// announced length over 64 MiB.
GLOBE_BLOCKING bool recv_frame(int fd, util::Bytes& out);

/// Serves one MessageHandler on a localhost TCP port.  Accepts connections
/// on a background thread and handles each request on a worker pool.
class TcpServer {
 public:
  /// Binds and listens on 127.0.0.1:`port` (port 0 picks a free port, see
  /// port()).  Throws std::runtime_error on socket errors.
  TcpServer(std::uint16_t port, MessageHandler handler, std::size_t workers = 4);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  std::uint16_t port() const { return port_; }
  void stop();

 private:
  void accept_loop();
  void serve_connection(int fd);

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  MessageHandler handler_;
  util::ThreadPool pool_;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};
};

/// Client transport over real sockets.  Connections are cached per endpoint.
/// Not thread-safe; use one instance per client thread.
class TcpTransport final : public Transport {
 public:
  TcpTransport() = default;
  ~TcpTransport() override;

  /// recv() path of the live transport: the response bytes come straight
  /// off a socket (GLOBE_UNTRUSTED inherited from Transport::call).
  GLOBE_BLOCKING GLOBE_UNTRUSTED util::Result<util::Bytes> call(
      const Endpoint& ep, util::BytesView request) override;
  util::SimTime now() const override { return clock_.now(); }
  void charge(CpuOp, std::uint64_t) override {}  // wall clock ticks by itself
  HostId local_host() const override { return HostId{0}; }

  void reset_connections();

 private:
  int connect_to(std::uint16_t port);

  util::RealClock clock_;
  std::unordered_map<std::uint16_t, int> connections_;
};

}  // namespace globe::net
