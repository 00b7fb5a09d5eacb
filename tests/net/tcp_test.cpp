#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
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

TEST(TcpTest, ShortSendmsgIsFinishedAndTheFrameArrivesWhole) {
  // The sender has a small send buffer and a 250 ms send timeout; the
  // receiver has a small receive buffer and drains at most 4 KB per
  // millisecond.  Moving 2 MiB then takes over half a second, so sendmsg
  // gives up after 250 ms with part of the frame sent, and send_frame must
  // finish the rest.
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

  Bytes payload(2 * 1024 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + i / 4096);
  }
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
  const bool sent = send_frame(tx, payload);
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
