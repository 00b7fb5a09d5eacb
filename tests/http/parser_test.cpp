#include "http/parser.hpp"

#include <gtest/gtest.h>

namespace globe::http {
namespace {

using util::Bytes;
using util::ErrorCode;
using util::to_bytes;

TEST(ParseRequestTest, BasicGet) {
  auto r = parse_request(to_bytes("GET /doc/a.html HTTP/1.1\r\nHost: x\r\n\r\n"));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->method, "GET");
  EXPECT_EQ(r->target, "/doc/a.html");
  EXPECT_EQ(r->version, "HTTP/1.1");
  EXPECT_EQ(r->headers.get("Host"), "x");
  EXPECT_TRUE(r->body.empty());
}

TEST(ParseRequestTest, BodyWithContentLength) {
  auto r = parse_request(
      to_bytes("POST /u HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloEXTRA"));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(util::to_string(r->body), "hello");  // extra bytes ignored
}

TEST(ParseRequestTest, RoundTripThroughSerialize) {
  HttpRequest req;
  req.method = "PUT";
  req.target = "/x/y?q=1";
  req.headers.set("X-Custom", "value with spaces");
  req.body = to_bytes("payload");
  auto parsed = parse_request(req.serialize());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->method, "PUT");
  EXPECT_EQ(parsed->target, "/x/y?q=1");
  EXPECT_EQ(parsed->headers.get("X-Custom"), "value with spaces");
  EXPECT_EQ(parsed->body, req.body);
}

TEST(ParseRequestTest, HeaderValueTrimmed) {
  auto r = parse_request(to_bytes("GET / HTTP/1.1\r\nH:   padded value  \r\n\r\n"));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->headers.get("H"), "padded value");
}

TEST(ParseRequestTest, MalformedInputsRejected) {
  for (const char* bad : {
           "",                                     // empty
           "GET / HTTP/1.1",                       // no terminator
           "GET / HTTP/1.1\r\n\r",                 // partial terminator
           "GET/HTTP/1.1\r\n\r\n",                 // no spaces
           "GET / FTP/1.0\r\n\r\n",                // not HTTP
           "GE T / HTTP/1.1\r\n\r\n",              // bad method chars? (extra sp)
           "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",  // bad header
           "GET / HTTP/1.1\r\n: novalue\r\n\r\n",  // empty header name
           "GET / HTTP/1.1\r\nContent-Length: ten\r\n\r\n",  // bad CL
           "GET / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort",  // truncated
       }) {
    EXPECT_FALSE(parse_request(to_bytes(bad)).is_ok()) << bad;
  }
}

TEST(ParseResponseTest, Basic) {
  auto r = parse_response(
      to_bytes("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc"));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->status, 200);
  EXPECT_EQ(r->reason, "OK");
  EXPECT_EQ(util::to_string(r->body), "abc");
}

// A response parsed from a buffer it may keep (HttpClient's frame) reads
// the same as one parsed from a view of it, whichever way the body is
// framed, and fails on the same inputs.
TEST(ParseResponseTest, OwnedFrameParsesLikeItsView) {
  for (const char* wire : {
           "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcTRAILING",
           "HTTP/1.1 200 OK\r\nX-A: b\r\n\r\nno length",
           "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
           "HTTP/1.1 204 No Content\r\n\r\n",
           "HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort",
       }) {
    const Bytes frame = to_bytes(wire);
    auto viewed = parse_response(util::BytesView(frame));
    auto owned = parse_response(Bytes(frame));
    ASSERT_EQ(owned.code(), viewed.code()) << wire;
    if (!viewed.is_ok()) continue;
    EXPECT_EQ(owned->status, viewed->status) << wire;
    EXPECT_EQ(owned->reason, viewed->reason) << wire;
    EXPECT_EQ(owned->headers.all(), viewed->headers.all()) << wire;
    EXPECT_EQ(owned->body, viewed->body) << wire;
  }
}

TEST(ParseResponseTest, MultiWordReason) {
  auto r = parse_response(to_bytes("HTTP/1.1 404 Not Found\r\n\r\n"));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->status, 404);
  EXPECT_EQ(r->reason, "Not Found");
}

TEST(ParseResponseTest, BadStatusRejected) {
  EXPECT_FALSE(parse_response(to_bytes("HTTP/1.1 abc OK\r\n\r\n")).is_ok());
  EXPECT_FALSE(parse_response(to_bytes("HTTP/1.1 42 Tiny\r\n\r\n")).is_ok());
  EXPECT_FALSE(parse_response(to_bytes("ICY 200 OK\r\n\r\n")).is_ok());
}

TEST(ParseResponseTest, ChunkedBodyDecoded) {
  auto r = parse_response(to_bytes(
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(util::to_string(r->body), "hello world");
}

TEST(ParseResponseTest, ChunkedWithExtensionAndBadChunksRejected) {
  auto ok = parse_response(to_bytes(
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5;ext=1\r\nhello\r\n0\r\n\r\n"));
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(util::to_string(ok->body), "hello");

  EXPECT_FALSE(parse_response(to_bytes(
                   "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                   "ZZ\r\nhello\r\n0\r\n\r\n"))
                   .is_ok());
  EXPECT_FALSE(parse_response(to_bytes(
                   "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                   "5\r\nhel"))
                   .is_ok());
}

TEST(FramerTest, SingleMessageInOneFeed) {
  MessageFramer f;
  ASSERT_TRUE(f.feed(to_bytes("GET / HTTP/1.1\r\n\r\n")).is_ok());
  ASSERT_TRUE(f.has_message());
  EXPECT_EQ(util::to_string(f.take_message()), "GET / HTTP/1.1\r\n\r\n");
  EXPECT_FALSE(f.has_message());
}

TEST(FramerTest, ByteAtATime) {
  std::string msg = "HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody";
  MessageFramer f;
  for (char c : msg) {
    Bytes one{static_cast<std::uint8_t>(c)};
    ASSERT_TRUE(f.feed(one).is_ok());
  }
  ASSERT_TRUE(f.has_message());
  EXPECT_EQ(util::to_string(f.take_message()), msg);
}

TEST(FramerTest, PipelinedMessagesSplitCorrectly) {
  std::string m1 = "GET /a HTTP/1.1\r\n\r\n";
  std::string m2 = "POST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
  MessageFramer f;
  ASSERT_TRUE(f.feed(to_bytes(m1 + m2)).is_ok());
  ASSERT_TRUE(f.has_message());
  EXPECT_EQ(util::to_string(f.take_message()), m1);
  ASSERT_TRUE(f.has_message());
  EXPECT_EQ(util::to_string(f.take_message()), m2);
}

TEST(FramerTest, ChunkedMessageFramed) {
  std::string msg =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "3\r\nabc\r\n0\r\n\r\n";
  MessageFramer f;
  ASSERT_TRUE(f.feed(to_bytes(msg.substr(0, 50))).is_ok());
  EXPECT_FALSE(f.has_message());
  ASSERT_TRUE(f.feed(to_bytes(msg.substr(50))).is_ok());
  ASSERT_TRUE(f.has_message());
  EXPECT_EQ(util::to_string(f.take_message()), msg);
}

TEST(FramerTest, OversizedMessageRejected) {
  MessageFramer f;
  f.set_max_message(100);
  EXPECT_FALSE(f.feed(Bytes(101, 'x')).is_ok());
}

TEST(FramerTest, OversizedDeclaredBodyRejected) {
  MessageFramer f;
  f.set_max_message(100);
  auto s = f.feed(to_bytes("GET / HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n"));
  EXPECT_FALSE(s.is_ok());
}

TEST(FramerTest, TakeWithoutMessageThrows) {
  MessageFramer f;
  EXPECT_THROW(f.take_message(), std::logic_error);
}


TEST(ParseResponseTest, HugeChunkSizeOverflowRejected) {
  // A chunk size near SIZE_MAX must not wrap the bounds arithmetic into an
  // out-of-range read (code-review regression).
  auto r = parse_response(to_bytes(
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "fffffffffffffff0\r\nhello\r\n0\r\n\r\n"));
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), ErrorCode::kProtocol);
}

TEST(FramerTest, HugeChunkSizeTerminates) {
  // The framer must reject (not spin on) a wrapped chunk position.
  MessageFramer f;
  auto s = f.feed(to_bytes(
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "ffffffffffffff00\r\njunk"));
  EXPECT_FALSE(s.is_ok());
}

TEST(FramerTest, ChunkBeyondLimitRejected) {
  MessageFramer f;
  f.set_max_message(1024);
  auto s = f.feed(to_bytes(
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "10000\r\n"));  // 64 KiB chunk vs 1 KiB limit
  EXPECT_FALSE(s.is_ok());
}

}  // namespace
}  // namespace globe::http
