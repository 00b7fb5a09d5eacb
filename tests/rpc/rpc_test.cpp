#include "rpc/rpc.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

#include "net/simnet.hpp"
#include "obs/collector.hpp"
#include "util/serial.hpp"

// Every allocation in this binary goes through the replacement operator new
// below, which counts them while armed.
namespace {

std::atomic<bool> g_counting{false};
std::atomic<int> g_allocations{0};

void* counted_malloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form that the runtime would otherwise pair with its own
// allocator; the aligned forms stay the runtime's, as a pair.
void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace globe::rpc {
namespace {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Result;

struct RpcFixture : ::testing::Test {
  void SetUp() override {
    host = net.add_host({"server", net::CpuModel{}});
    client_host = net.add_host({"client", net::CpuModel{}});
    dispatcher.register_method(kNamingService, 1,
                               [](net::ServerContext&, BytesView req) -> Result<Bytes> {
                                 Bytes out(req.begin(), req.end());
                                 out.push_back('A');
                                 return out;
                               });
    dispatcher.register_method(kNamingService, 2,
                               [](net::ServerContext&, BytesView) -> Result<Bytes> {
                                 return Result<Bytes>(ErrorCode::kNotFound, "nope");
                               });
    dispatcher.register_method(kLocationService, 1,
                               [](net::ServerContext&, BytesView req) -> Result<Bytes> {
                                 Bytes out(req.begin(), req.end());
                                 out.push_back('B');
                                 return out;
                               });
    ep = net::Endpoint{host, 42};
    net.bind(ep, dispatcher.handler());
    flow = net.open_flow(client_host);
  }

  net::SimNet net;
  net::HostId host, client_host;
  ServiceDispatcher dispatcher;
  net::Endpoint ep;
  std::unique_ptr<net::SimFlow> flow;
};

TEST_F(RpcFixture, RoutesByServiceAndMethod) {
  RpcClient client(*flow, ep);
  auto r1 = client.call(kNamingService, 1, util::to_bytes("x"));
  ASSERT_TRUE(r1.is_ok());
  EXPECT_EQ(util::to_string(*r1), "xA");
  auto r2 = client.call(kLocationService, 1, util::to_bytes("x"));
  ASSERT_TRUE(r2.is_ok());
  EXPECT_EQ(util::to_string(*r2), "xB");
}

TEST_F(RpcFixture, ErrorResultPropagates) {
  RpcClient client(*flow, ep);
  auto r = client.call(kNamingService, 2, Bytes{});
  EXPECT_EQ(r.code(), ErrorCode::kNotFound);
}

TEST_F(RpcFixture, UnknownMethodReturnsNotFound) {
  RpcClient client(*flow, ep);
  EXPECT_EQ(client.call(kNamingService, 99, Bytes{}).code(), ErrorCode::kNotFound);
  EXPECT_EQ(client.call(kGlobeDocAdmin, 1, Bytes{}).code(), ErrorCode::kNotFound);
}

TEST_F(RpcFixture, DuplicateRegistrationThrows) {
  EXPECT_THROW(dispatcher.register_method(
                   kNamingService, 1,
                   [](net::ServerContext&, BytesView) -> Result<Bytes> {
                     return Bytes{};
                   }),
               std::logic_error);
}

TEST_F(RpcFixture, TruncatedHeaderRejected) {
  // Raw 3-byte request cannot contain the 4-byte RPC header.
  auto r = flow->call(ep, Bytes{1, 2, 3});
  EXPECT_EQ(r.code(), ErrorCode::kProtocol);
}

TEST_F(RpcFixture, EmptyPayloadAllowed) {
  RpcClient client(*flow, ep);
  auto r = client.call(kNamingService, 1, Bytes{});
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(util::to_string(*r), "A");
}

// A serving context for calling dispatch() directly; the no-op method below
// reads none of it.
struct BareContext : net::ServerContext {
  util::SimTime now() const override { return 0; }
  void charge(net::CpuOp, std::uint64_t) override {}
  net::HostId local_host() const override { return net::HostId{0}; }
  net::Transport& transport() override { std::abort(); }
};

// The dispatcher calls the registered handler in place.  A lambda that
// captures 32 bytes outgrows std::function's inline buffer, so a copy of the
// handler per request would allocate.
TEST(DispatchAllocationTest, UntracedDispatchOfANoOpMethodAllocatesNothing) {
  ServiceDispatcher dispatcher;
  const std::array<std::uint64_t, 4> captured{1, 2, 3, 4};
  static_assert(sizeof(captured) >= 32);
  dispatcher.register_method(
      kNamingService, 1, [captured](net::ServerContext&, BytesView) -> Result<net::Reply> {
        (void)captured;
        return net::Reply();
      });
  util::Writer w;
  w.u16(kNamingService);
  w.u16(1);
  const Bytes request = w.take();
  BareContext ctx;
  g_allocations.store(0);
  g_counting.store(true);
  auto reply = dispatcher.dispatch(ctx, request);
  g_counting.store(false);
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(g_allocations.load(), 0);
}

// The ids are wire values: each must match its row in docs/PROTOCOL.md, and a
// retired id is never reused, so it renders as a bare number.
TEST(ServiceIdTest, IdsMatchTheProtocolTableAndSevenIsRetired) {
  EXPECT_EQ(kNamingService, 1);
  EXPECT_EQ(kLocationService, 2);
  EXPECT_EQ(kGlobeDocAccess, 3);
  EXPECT_EQ(kGlobeDocSecurity, 4);
  EXPECT_EQ(kGlobeDocAdmin, 5);
  EXPECT_EQ(kTelemetryService, 8);
  EXPECT_EQ(rpc_span_name(kTelemetryService, 1), "rpc:telemetry/1");
  EXPECT_EQ(rpc_span_name(6, 1), "rpc:6/1");
  EXPECT_EQ(rpc_span_name(7, 1), "rpc:7/1");
}

// --- Distributed trace propagation over the request framing ----------------

struct TracedRpcFixture : RpcFixture {
  void SetUp() override {
    RpcFixture::SetUp();
    collector.set_policy({/*keep_slower_than=*/0, /*keep_one_in=*/1});
    dispatcher.set_trace_sink(&collector);
    dispatcher.set_trace_host("srv");
    // A method that captures the trace context in force on the server side.
    dispatcher.register_method(
        kGlobeDocAccess, 7,
        [this](net::ServerContext&, BytesView) -> Result<Bytes> {
          server_ctx = obs::current_trace_context();
          return Bytes{};
        });
  }

  obs::TraceCollector collector{16};
  obs::TraceContext server_ctx;
};

TEST_F(TracedRpcFixture, CallerContextPropagatesAndStitchesAsChild) {
  obs::Tracer tracer([this] { return flow->now(); });
  tracer.set_sink(&collector);
  tracer.set_host("client");

  RpcClient client(*flow, ep);
  std::uint64_t fetch_parent;
  {
    auto fetch = tracer.span("fetch");
    fetch_parent = obs::current_trace_context().parent_span;
    auto r = client.call(kGlobeDocAccess, 7, util::to_bytes("x"));
    ASSERT_TRUE(r.is_ok());
    // After the inline server span closed, the client's own context must be
    // back in force.
    EXPECT_EQ(obs::current_trace_context().parent_span, fetch_parent);
  }

  // The server-side handler ran INSIDE the caller's trace: same trace id,
  // but under the dispatcher's server span, not directly under "fetch".
  EXPECT_EQ(server_ctx.trace_hi, tracer.trace_hi());
  EXPECT_EQ(server_ctx.trace_lo, tracer.trace_lo());
  EXPECT_NE(server_ctx.parent_span, 0u);
  EXPECT_NE(server_ctx.parent_span, fetch_parent);

  // Stitched: one trace, the server fragment a child of the fetch root.
  EXPECT_EQ(collector.traces_seen(), 1u);
  auto trace = collector.find(tracer.trace_hi(), tracer.trace_lo());
  ASSERT_TRUE(trace.has_value());
  EXPECT_TRUE(trace->complete);
  EXPECT_EQ(trace->fragments, 2u);
  EXPECT_EQ(trace->root.name, "fetch");
  EXPECT_EQ(trace->root.host, "client");
  ASSERT_EQ(trace->root.children.size(), 1u);
  EXPECT_EQ(trace->root.children[0].name, "rpc:gd.access/7");
  EXPECT_EQ(trace->root.children[0].host, "srv");
  EXPECT_EQ(trace->root.children[0].span_id, server_ctx.parent_span);
}

TEST_F(TracedRpcFixture, UntracedCallsRecordNoServerSpans) {
  RpcClient client(*flow, ep);
  ASSERT_TRUE(client.call(kGlobeDocAccess, 7, Bytes{}).is_ok());
  EXPECT_FALSE(server_ctx.valid());
  EXPECT_EQ(collector.traces_seen(), 0u);
  EXPECT_EQ(collector.pending_fragments(), 0u);
}

TEST_F(TracedRpcFixture, UnsampledContextIsNotInjected) {
  obs::TraceContext unsampled;
  unsampled.trace_hi = 1;
  unsampled.trace_lo = 2;
  unsampled.parent_span = 3;
  unsampled.sampled = false;

  obs::Tracer tracer([this] { return flow->now(); });
  tracer.adopt(unsampled);
  auto span = tracer.span("fetch");
  std::uint64_t fetch_span = obs::current_trace_context().parent_span;
  RpcClient client(*flow, ep);
  ASSERT_TRUE(client.call(kGlobeDocAccess, 7, Bytes{}).is_ok());
  // SimNet runs the handler inline on the caller's thread, so it observes
  // the caller's own (unsampled) context — but the dispatcher must not have
  // opened a server child span, and nothing may reach the collector.
  EXPECT_FALSE(server_ctx.sampled);
  EXPECT_EQ(server_ctx.parent_span, fetch_span);
  span.end();
  EXPECT_EQ(collector.traces_seen(), 0u);
  EXPECT_EQ(collector.pending_fragments(), 0u);
}

TEST_F(TracedRpcFixture, UndecodablePayloadAnswersProtocolInsideTheServerSpan) {
  // A handler that reads a u32 throws on a shorter payload; the dispatcher
  // answers PROTOCOL with the reader's message, traced or not, and a traced
  // call's server span still closes under the caller's.
  dispatcher.register_method(kGlobeDocAccess, 8,
                             [](net::ServerContext&, BytesView req) -> Result<Bytes> {
                               util::Reader r(req);
                               r.u32();
                               return Bytes{};
                             });
  RpcClient client(*flow, ep);
  auto untraced = client.call(kGlobeDocAccess, 8, Bytes{1});
  EXPECT_EQ(untraced.code(), ErrorCode::kProtocol);
  EXPECT_EQ(untraced.status().message(), "truncated message: need 4 bytes, have 1");

  obs::Tracer tracer([this] { return flow->now(); });
  tracer.set_sink(&collector);
  {
    auto fetch = tracer.span("fetch");
    auto traced = client.call(kGlobeDocAccess, 8, Bytes{1});
    EXPECT_EQ(traced.code(), ErrorCode::kProtocol);
    EXPECT_EQ(traced.status().message(), untraced.status().message());
  }
  auto trace = collector.find(tracer.trace_hi(), tracer.trace_lo());
  ASSERT_TRUE(trace.has_value());
  EXPECT_TRUE(trace->complete);
  ASSERT_EQ(trace->root.children.size(), 1u);
  EXPECT_EQ(trace->root.children[0].name, "rpc:gd.access/8");
}

TEST_F(TracedRpcFixture, UntaggedLegacyFramingStillDispatches) {
  // A peer that predates the trace header: plain u16 service, u16 method.
  util::Writer w;
  w.u16(kNamingService);
  w.u16(1);
  w.raw(util::to_bytes("y"));
  auto r = flow->call(ep, w.buffer());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(util::to_string(*r), "yA");
  EXPECT_EQ(collector.traces_seen(), 0u);
}

TEST_F(TracedRpcFixture, UnknownTraceHeaderVersionRejectedAsProtocolError) {
  // Marker present but a future version: the context length is defined per
  // version, so the dispatcher cannot know where the header ends and must
  // reject rather than mis-frame service/method out of the context bytes.
  obs::TraceContext ctx;
  ctx.trace_hi = 5;
  ctx.trace_lo = 6;
  ctx.parent_span = 7;
  util::Writer w;
  w.u16(kTraceMarker);
  w.u8(kTraceVersion + 1);
  ctx.encode(w);
  w.u16(kNamingService);
  w.u16(1);
  w.raw(util::to_bytes("z"));
  auto r = flow->call(ep, w.buffer());
  EXPECT_EQ(r.code(), util::ErrorCode::kProtocol);
  EXPECT_EQ(collector.traces_seen(), 0u);
  EXPECT_EQ(collector.pending_fragments(), 0u);
}

TEST_F(TracedRpcFixture, ShortLegacyFrameRejectedAsProtocolError) {
  // 2 bytes: a service id with no method.  Must come back as kProtocol from
  // the Reader's bounds check, never reach subspan() past the buffer end.
  util::Writer w;
  w.u16(kNamingService);
  auto r = flow->call(ep, w.buffer());
  EXPECT_EQ(r.code(), util::ErrorCode::kProtocol);
}

TEST_F(TracedRpcFixture, TraceHeaderWithoutMethodRejectedAsProtocolError) {
  // Full trace header + service id, but the method u16 is missing.
  obs::TraceContext ctx;
  ctx.trace_hi = 5;
  ctx.trace_lo = 6;
  ctx.parent_span = 7;
  ctx.sampled = true;
  util::Writer w;
  w.u16(kTraceMarker);
  w.u8(kTraceVersion);
  ctx.encode(w);
  w.u16(kNamingService);
  auto r = flow->call(ep, w.buffer());
  EXPECT_EQ(r.code(), util::ErrorCode::kProtocol);
}

TEST_F(TracedRpcFixture, TruncatedTraceHeaderRejectedAsProtocolError) {
  util::Writer w;
  w.u16(kTraceMarker);
  w.u8(kTraceVersion);
  // Header promises a TraceContext but delivers only 4 bytes of it.
  w.u32(0xdeadbeef);
  auto r = flow->call(ep, w.buffer());
  EXPECT_EQ(r.code(), util::ErrorCode::kProtocol);
}

}  // namespace
}  // namespace globe::rpc
