// Span events (DESIGN.md §10): each event rides the innermost open span of
// the emitting thread, warnings and errors also write one stderr line, and
// the per-span cap bounds memory.
#include <gtest/gtest.h>

#include "net/simnet.hpp"
#include "obs/collector.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "rpc/rpc.hpp"
#include "util/clock.hpp"

namespace globe::obs {
namespace {

using util::ManualClock;
using util::millis;

TEST(SpanEvents, LandOnTheInnermostOpenSpan) {
  ManualClock clock;
  Tracer tracer(clock);
  {
    auto fetch = tracer.span("fetch");
    clock.advance(millis(1));
    {
      auto stage = tracer.span("element_verify");
      clock.advance(millis(2));
      emit_event(EventLevel::kInfo, "proxy", "element_checked", "logo.gif");
      emit_event(EventLevel::kInfo, "proxy", "element_cached");
    }
    clock.advance(millis(4));
    emit_event(EventLevel::kInfo, "proxy", "served");
  }
  // After the root closes no span is open: the event is dropped.
  emit_event(EventLevel::kInfo, "proxy", "outside");

  auto roots = tracer.take_finished();
  ASSERT_EQ(roots.size(), 1u);
  const SpanRecord& fetch = roots[0];
  ASSERT_EQ(fetch.events.size(), 1u);
  EXPECT_EQ(fetch.events[0].event, "served");
  EXPECT_EQ(fetch.events[0].time, millis(7));

  ASSERT_EQ(fetch.children.size(), 1u);
  const SpanRecord& stage = fetch.children[0];
  ASSERT_EQ(stage.events.size(), 2u);
  EXPECT_EQ(stage.events[0].level, EventLevel::kInfo);
  EXPECT_EQ(stage.events[0].component, "proxy");
  EXPECT_EQ(stage.events[0].event, "element_checked");
  EXPECT_EQ(stage.events[0].detail, "logo.gif");
  EXPECT_EQ(stage.events[0].time, millis(3));
  EXPECT_EQ(stage.events[1].event, "element_cached");
  EXPECT_TRUE(stage.events[1].detail.empty());
}

TEST(SpanEvents, ServerSpanOpenedInlineTakesTheHandlersEvents) {
  // SimNet runs a handler on the caller's thread: the dispatcher's server
  // span is the innermost open span while the handler runs, so the
  // handler's event lands there and not on the caller's span; once the
  // server span closes, events land on the caller's span again.
  net::SimNet net;
  net::HostId client_host = net.add_host({"client", net::CpuModel{}});
  net::HostId server_host = net.add_host({"server", net::CpuModel{}});
  TraceCollector collector(8);
  collector.set_policy({/*keep_slower_than=*/0, /*keep_one_in=*/1});

  rpc::ServiceDispatcher dispatcher;
  dispatcher.set_trace_sink(&collector);
  dispatcher.set_trace_host("server");
  dispatcher.register_method(
      rpc::kGlobeDocAdmin, 2, [](net::ServerContext&, util::BytesView) {
        emit_event(EventLevel::kInfo, "server", "replica_install", "srv-1");
        return util::Result<util::Bytes>(util::Bytes{});
      });
  net::Endpoint ep{server_host, 8000};
  net.bind(ep, dispatcher.handler());

  auto flow = net.open_flow(client_host);
  Tracer tracer([&flow] { return flow->now(); });
  tracer.set_sink(&collector);
  {
    auto root = tracer.span("publish");
    rpc::RpcClient client(*flow, ep);
    ASSERT_TRUE(client.call(rpc::kGlobeDocAdmin, 2, util::Bytes{}).is_ok());
    emit_event(EventLevel::kInfo, "owner", "published");
  }

  auto trace = collector.find(tracer.trace_hi(), tracer.trace_lo());
  ASSERT_TRUE(trace.has_value());
  ASSERT_EQ(trace->root.events.size(), 1u);
  EXPECT_EQ(trace->root.events[0].event, "published");
  const SpanRecord* server = find_span(trace->root, "rpc:gd.admin/2");
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->host, "server");
  ASSERT_EQ(server->events.size(), 1u);
  EXPECT_EQ(server->events[0].component, "server");
  EXPECT_EQ(server->events[0].event, "replica_install");
  EXPECT_EQ(server->events[0].detail, "srv-1");
  // Timed by the server span's clock: inside the server span.
  EXPECT_GE(server->events[0].time, server->start);
  EXPECT_LE(server->events[0].time, server->start + server->duration);
}

TEST(SpanEvents, JsonCarriesEventsOnlyWhenPresent) {
  SpanRecord root;
  root.name = "fetch";
  root.start = 10;
  root.duration = 100;
  SpanRecord child;
  child.name = "resolve";
  child.start = 12;
  child.duration = 30;
  root.children.push_back(child);
  std::string plain = to_json(root);
  EXPECT_EQ(plain.find("events"), std::string::npos);

  root.events.push_back({EventLevel::kWarn, 42, "proxy", "element_rejected",
                         "bad \"digest\"\n"});
  root.events.push_back({EventLevel::kInfo, 43, "proxy", "served", ""});
  EXPECT_EQ(to_json(root),
            "{\"name\":\"fetch\",\"start_ns\":10,\"duration_ns\":100,"
            "\"events\":[{\"time_ns\":42,\"level\":\"warn\","
            "\"component\":\"proxy\",\"event\":\"element_rejected\","
            "\"detail\":\"bad \\\"digest\\\"\\n\"},"
            "{\"time_ns\":43,\"level\":\"info\",\"component\":\"proxy\","
            "\"event\":\"served\"}],"
            "\"children\":[{\"name\":\"resolve\",\"start_ns\":12,"
            "\"duration_ns\":30,\"children\":[]}]}");
}

TEST(SpanEvents, WarnAndAboveWriteOneStderrLineEach) {
  ManualClock clock;
  Tracer tracer(clock);
  ::testing::internal::CaptureStderr();
  {
    auto fetch = tracer.span("fetch");
    emit_event(EventLevel::kInfo, "replication", "pull_installed", "v2");
    emit_event(EventLevel::kWarn, "proxy", "binding_failed",
               "host1:8000: EXPIRED");
    emit_event(EventLevel::kError, "replication", "gave_up");
  }
  std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err,
            "[WARN] proxy: binding_failed: host1:8000: EXPIRED\n"
            "[ERROR] replication: gave_up\n");
  // The info event is kept on the span, just not printed.
  auto roots = tracer.take_finished();
  ASSERT_EQ(roots.size(), 1u);
  ASSERT_EQ(roots[0].events.size(), 3u);
  EXPECT_EQ(roots[0].events[0].level, EventLevel::kInfo);
  EXPECT_EQ(roots[0].events[2].level, EventLevel::kError);
}

TEST(SpanEvents, OutsideASpanWarnPrintsOnceAndInfoNothing) {
  ASSERT_FALSE(current_trace_context().valid());
  ::testing::internal::CaptureStderr();
  emit_event(EventLevel::kWarn, "replication", "refresh_failed", "oid");
  emit_event(EventLevel::kInfo, "replication", "pull_installed", "oid v2");
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "[WARN] replication: refresh_failed: oid\n");

  // Neither event lands on a span opened afterwards.
  ManualClock clock;
  Tracer tracer(clock);
  { auto later = tracer.span("later"); }
  EXPECT_TRUE(tracer.take_finished()[0].events.empty());
}

TEST(SpanEvents, StderrLineEscapesControlBytes) {
  // A detail carrying a peer's error message cannot forge a second line;
  // the span keeps the raw text (/tracez escapes it as JSON).
  ManualClock clock;
  Tracer tracer(clock);
  std::string forged = "boom\n[WARN] proxy: forged_event: all good\r\x7f";
  ::testing::internal::CaptureStderr();
  {
    auto fetch = tracer.span("fetch");
    emit_event(EventLevel::kWarn, "proxy\n", "binding_failed\t", forged);
  }
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "[WARN] proxy\\x0a: binding_failed\\x09: boom\\x0a[WARN] proxy: "
            "forged_event: all good\\x0d\\x7f\n");
  auto roots = tracer.take_finished();
  ASSERT_EQ(roots[0].events.size(), 1u);
  EXPECT_EQ(roots[0].events[0].detail, forged);
}

TEST(SpanEvents, PerSpanCapBoundsMemory) {
  ManualClock clock;
  Tracer tracer(clock);
  {
    auto fetch = tracer.span("fetch");
    for (std::size_t i = 0; i < 3 * kMaxSpanEvents; ++i) {
      emit_event(EventLevel::kInfo, "proxy", "e" + std::to_string(i));
    }
    // A full parent does not stop a child from recording its own.
    auto stage = tracer.span("element_verify");
    emit_event(EventLevel::kInfo, "proxy", "child");
  }
  auto roots = tracer.take_finished();
  ASSERT_EQ(roots.size(), 1u);
  ASSERT_EQ(roots[0].events.size(), kMaxSpanEvents);
  EXPECT_EQ(roots[0].events.front().event, "e0");
  EXPECT_EQ(roots[0].events.back().event,
            "e" + std::to_string(kMaxSpanEvents - 1));
  ASSERT_EQ(roots[0].children.size(), 1u);
  ASSERT_EQ(roots[0].children[0].events.size(), 1u);
  EXPECT_EQ(roots[0].children[0].events[0].event, "child");
}

}  // namespace
}  // namespace globe::obs
