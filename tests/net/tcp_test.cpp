#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <span>
#include <thread>
#include <vector>

namespace globe::net {
namespace {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Result;

TEST(TcpTest, EchoRoundTrip) {
  TcpServer server(0, [](ServerContext&, BytesView req) -> Result<Bytes> {
    return Bytes(req.begin(), req.end());
  });
  TcpTransport client;
  auto r = client.call(Endpoint{HostId{0}, server.port()}, util::to_bytes("hello tcp"));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(util::to_string(*r), "hello tcp");
}

TEST(TcpTest, ErrorStatusPropagates) {
  TcpServer server(0, [](ServerContext&, BytesView) -> Result<Bytes> {
    return Result<Bytes>(ErrorCode::kPermissionDenied, "keystore rejects you");
  });
  TcpTransport client;
  auto r = client.call(Endpoint{HostId{0}, server.port()}, util::to_bytes("x"));
  EXPECT_EQ(r.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(r.status().message(), "keystore rejects you");
}

TEST(TcpTest, HandlerExceptionBecomesInternal) {
  TcpServer server(0, [](ServerContext&, BytesView) -> Result<Bytes> {
    throw std::runtime_error("kaboom");
  });
  TcpTransport client;
  auto r = client.call(Endpoint{HostId{0}, server.port()}, util::to_bytes("x"));
  EXPECT_EQ(r.code(), ErrorCode::kInternal);
}

TEST(TcpTest, LargePayloadRoundTrip) {
  TcpServer server(0, [](ServerContext&, BytesView req) -> Result<Bytes> {
    return Bytes(req.begin(), req.end());
  });
  TcpTransport client;
  Bytes big(2 * 1024 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i);
  auto r = client.call(Endpoint{HostId{0}, server.port()}, big);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, big);
}

TEST(TcpTest, MultipleSequentialRequestsReuseConnection) {
  TcpServer server(0, [](ServerContext&, BytesView req) -> Result<Bytes> {
    Bytes out(req.begin(), req.end());
    out.push_back('!');
    return out;
  });
  TcpTransport client;
  Endpoint ep{HostId{0}, server.port()};
  for (int i = 0; i < 20; ++i) {
    auto r = client.call(ep, util::to_bytes("msg" + std::to_string(i)));
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(util::to_string(*r), "msg" + std::to_string(i) + "!");
  }
}

TEST(TcpTest, ConcurrentClients) {
  TcpServer server(0, [](ServerContext&, BytesView req) -> Result<Bytes> {
    return Bytes(req.begin(), req.end());
  });
  std::uint16_t port = server.port();
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([port, t, &ok] {
      TcpTransport client;
      for (int i = 0; i < 10; ++i) {
        Bytes msg = util::to_bytes("t" + std::to_string(t) + "i" + std::to_string(i));
        auto r = client.call(Endpoint{HostId{0}, port}, msg);
        if (r.is_ok() && *r == msg) ok.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), 80);
}

TEST(TcpTest, ConnectToClosedPortFails) {
  std::uint16_t dead_port;
  {
    TcpServer server(0, [](ServerContext&, BytesView) -> Result<Bytes> {
      return Bytes{};
    });
    dead_port = server.port();
  }  // server destroyed
  TcpTransport client;
  auto r = client.call(Endpoint{HostId{0}, dead_port}, util::to_bytes("x"));
  EXPECT_EQ(r.code(), ErrorCode::kUnavailable);
}

TEST(TcpTest, EmptyRequestAndResponse) {
  TcpServer server(0, [](ServerContext&, BytesView req) -> Result<Bytes> {
    EXPECT_EQ(req.size(), 0u);
    return Bytes{};
  });
  TcpTransport client;
  auto r = client.call(Endpoint{HostId{0}, server.port()}, Bytes{});
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->empty());
}

TEST(TcpTest, StopIsIdempotent) {
  TcpServer server(0, [](ServerContext&, BytesView) -> Result<Bytes> {
    return Bytes{};
  });
  server.stop();
  server.stop();
}

// Sends `parts` as one frame and checks that `payload`, their
// concatenation, arrives whole.  The sender has a small send buffer and a
// 250 ms send timeout; the receiver has a small receive buffer and drains
// at most 4 KB per millisecond.  Moving 2 MiB then takes over half a
// second, so sendmsg gives up after 250 ms with part of the frame sent, and
// send_frame must finish the rest.
void expect_short_sends_finish(std::span<const BytesView> parts, const Bytes& payload) {
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  const int small = 4096;
  ASSERT_EQ(::setsockopt(listen_fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof small), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t addr_len = sizeof addr;
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len),
            0);
  int tx = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(tx, 0);
  ASSERT_EQ(::setsockopt(tx, SOL_SOCKET, SO_SNDBUF, &small, sizeof small), 0);
  const timeval timeout{0, 250 * 1000};
  ASSERT_EQ(::setsockopt(tx, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout), 0);
  ASSERT_EQ(::connect(tx, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  int rx = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(rx, 0);

  Bytes received;
  std::thread reader([rx, &received] {
    std::uint8_t chunk[4096];
    for (;;) {
      ssize_t r = ::recv(rx, chunk, sizeof chunk, 0);
      if (r <= 0) return;
      received.insert(received.end(), chunk, chunk + r);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const auto begin = std::chrono::steady_clock::now();
  const bool sent = send_frame(tx, parts);
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  ::shutdown(tx, SHUT_WR);  // the reader stops at EOF
  reader.join();
  ::close(tx);
  ::close(rx);
  ::close(listen_fd);

  ASSERT_TRUE(sent);
  // One sendmsg blocks for at most the timeout, so a longer send took more
  // than one call.
  EXPECT_GT(elapsed, std::chrono::milliseconds(250));
  ASSERT_EQ(received.size(), 4 + payload.size());
  const Bytes header(received.begin(), received.begin() + 4);
  EXPECT_EQ(header, (Bytes{0x00, 0x20, 0x00, 0x00}));
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), received.begin() + 4));
}

TEST(TcpTest, ShortSendmsgIsFinishedAndTheFrameArrivesWhole) {
  Bytes payload(2 * 1024 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + i / 4096);
  }
  {
    SCOPED_TRACE("one part");
    const BytesView whole[] = {payload};
    expect_short_sends_finish(whole, payload);
  }
  {
    // Each 250 ms send moves far more than the 4 KB first part and far less
    // than the second, so the first short write ends inside the second
    // part and send_frame resumes from the middle of it.
    SCOPED_TRACE("three parts");
    const BytesView all = payload;
    const BytesView split[] = {all.first(4096), all.subspan(4096, all.size() - 8192),
                               all.last(4096)};
    expect_short_sends_finish(split, payload);
  }
}

TEST(TcpTest, OneSendFrameWritesFlatAndGatheredFrames) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const Bytes head = util::to_bytes("head:");
  const Bytes tail = util::to_bytes("tail bytes");
  const BytesView gathered[] = {head, BytesView{}, tail, head};
  ASSERT_TRUE(send_frame(fds[0], util::to_bytes("flat")));
  ASSERT_TRUE(send_frame(fds[0], gathered));
  ASSERT_TRUE(send_frame(fds[0], std::span<const BytesView>{}));
  const BytesView too_many[kMaxFrameParts + 1] = {};
  EXPECT_THROW(send_frame(fds[0], too_many), std::invalid_argument);
  ::close(fds[0]);

  // Every frame is its length, then the parts back to back.
  Bytes wire;
  std::uint8_t chunk[256];
  for (ssize_t r; (r = ::recv(fds[1], chunk, sizeof chunk, 0)) > 0;) {
    wire.insert(wire.end(), chunk, chunk + r);
  }
  ::close(fds[1]);
  const Bytes expected = util::to_bytes(std::string("\0\0\0\4flat", 8) +
                                        std::string("\0\0\0\x14head:tail byteshead:", 24) +
                                        std::string(4, '\0'));
  EXPECT_EQ(wire, expected);
}

/// The payload of the reply frame `server` writes for `request`, read off a
/// raw socket.
Bytes reply_on_the_wire(const TcpServer& server, BytesView request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  Bytes payload;
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  EXPECT_TRUE(send_frame(fd, request));
  EXPECT_TRUE(recv_frame(fd, payload));
  ::close(fd);
  return payload;
}

TEST(TcpTest, GatheredReplyArrivesAsItsFlattenedForm) {
  auto stored = std::make_shared<const Bytes>(util::to_bytes("content the reply views"));
  auto reply = [stored] { return Reply(util::to_bytes("head|"), *stored, stored); };
  TcpServer server(0, [reply](ServerContext&, BytesView) -> Result<Reply> {
    return reply();
  });
  const Bytes flat = reply().flatten();
  EXPECT_EQ(util::to_string(flat), "head|content the reply views");

  Bytes expected{1};  // the OK status byte, then the reply's bytes
  util::append(expected, flat);
  EXPECT_EQ(reply_on_the_wire(server, util::to_bytes("x")), expected);
  TcpTransport client;
  auto r = client.call(Endpoint{HostId{0}, server.port()}, util::to_bytes("x"));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, flat);
}

TEST(TcpTest, ErrorReplyFrameIsUnchanged) {
  TcpServer server(0, [](ServerContext&, BytesView) -> Result<Bytes> {
    return Result<Bytes>(ErrorCode::kPermissionDenied, "no");
  });
  // Status 0, the code byte, then the message as a length-prefixed string.
  const Bytes expected{0, static_cast<std::uint8_t>(ErrorCode::kPermissionDenied),
                       0, 0, 0, 2, 'n', 'o'};
  EXPECT_EQ(reply_on_the_wire(server, util::to_bytes("x")), expected);
}

TEST(TcpTest, EmptyReplyFrameIsAProtocolError) {
  // A raw peer answers with a frame too short to hold the status byte.  The
  // call fails as a protocol error and drops the connection, whose stream
  // is out of step.
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(listen_fd, 2), 0);
  socklen_t addr_len = sizeof addr;
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len),
            0);
  std::thread peer([listen_fd] {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    Bytes request;
    if (recv_frame(fd, request)) {
      const std::uint8_t reply[5] = {0, 0, 0, 0, 1};  // empty frame, stray byte
      ::send(fd, reply, sizeof reply, MSG_NOSIGNAL);
    }
    while (recv_frame(fd, request)) {
    }
    ::close(fd);
  });
  TcpTransport client;
  const Endpoint ep{HostId{0}, ntohs(addr.sin_port)};
  EXPECT_EQ(client.call(ep, util::to_bytes("x")).code(), ErrorCode::kProtocol);
  peer.join();  // returns once the client has closed the connection
  ::close(listen_fd);
}

long peak_rss_kb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(TcpTest, AnnouncedFrameLengthIsNotAllocatedUpFront) {
  // A raw peer reads the request, answers with a header announcing a
  // 64 MiB frame and closes.  The call fails without the client having
  // zero-filled the announced length: its buffer grows only as bytes
  // arrive.  call() returns only after the frame read has run.
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t addr_len = sizeof addr;
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len),
            0);
  std::thread peer([listen_fd] {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    std::uint8_t request[5];  // u32 length 1 + the one payload byte
    std::size_t got = 0;
    while (got < sizeof request) {
      ssize_t r = ::recv(fd, request + got, sizeof request - got, 0);
      if (r <= 0) break;
      got += static_cast<std::size_t>(r);
    }
    const std::uint8_t header[4] = {0x04, 0x00, 0x00, 0x00};  // 64 MiB
    ::send(fd, header, sizeof header, MSG_NOSIGNAL);
    ::close(fd);
  });

  long before_kb = peak_rss_kb();
  TcpTransport client;
  auto r = client.call(Endpoint{HostId{0}, ntohs(addr.sin_port)},
                       util::to_bytes("x"));
  long rise_kb = peak_rss_kb() - before_kb;
  peer.join();
  ::close(listen_fd);
  EXPECT_EQ(r.code(), ErrorCode::kUnavailable);
  EXPECT_LT(rise_kb, 16 * 1024);
}

}  // namespace
}  // namespace globe::net
