// TraceCollector: cross-host stitching, tail sampling, bounded memory.
#include "obs/collector.hpp"

#include <gtest/gtest.h>

namespace globe::obs {
namespace {

using util::millis;

// Hand-built fragments: a client root with one child span, plus server
// fragments that should stitch under specific client spans.
SpanRecord make_span(std::string name, std::uint64_t span_id,
                     util::SimTime start, util::SimDuration duration) {
  SpanRecord span;
  span.name = std::move(name);
  span.span_id = span_id;
  span.start = start;
  span.duration = duration;
  return span;
}

TraceFragment fragment(std::uint64_t hi, std::uint64_t lo,
                       std::uint64_t parent, SpanRecord span) {
  TraceFragment f;
  f.trace_hi = hi;
  f.trace_lo = lo;
  f.parent_span = parent;
  f.span = std::move(span);
  return f;
}

TailSamplingPolicy keep_everything() {
  TailSamplingPolicy policy;
  policy.keep_slower_than = 0;
  policy.keep_one_in = 1;
  return policy;
}

TEST(TraceCollector, StitchesServerFragmentsUnderTheirParentSpans) {
  TraceCollector collector(8);
  collector.set_policy(keep_everything());

  SpanRecord root = make_span("fetch", 100, 0, millis(50));
  root.children.push_back(make_span("resolve", 101, 0, millis(10)));
  root.children.push_back(make_span("key_check", 102, millis(10), millis(20)));

  // Server fragments arrive BEFORE the root (servers finish first).
  collector.record(
      fragment(1, 2, 101, make_span("rpc:naming/1", 201, millis(1), millis(8))));
  collector.record(fragment(
      1, 2, 102, make_span("rpc:gd.security/1", 202, millis(11), millis(15))));
  EXPECT_EQ(collector.pending_fragments(), 2u);
  EXPECT_EQ(collector.size(), 0u);

  collector.record(fragment(1, 2, 0, root));
  EXPECT_EQ(collector.pending_fragments(), 0u);
  ASSERT_EQ(collector.size(), 1u);

  auto trace = collector.find(1, 2);
  ASSERT_TRUE(trace.has_value());
  EXPECT_TRUE(trace->complete);
  EXPECT_EQ(trace->fragments, 3u);
  ASSERT_EQ(trace->root.children.size(), 2u);
  // The naming span landed under resolve, the security span under key_check.
  ASSERT_EQ(trace->root.children[0].children.size(), 1u);
  EXPECT_EQ(trace->root.children[0].children[0].name, "rpc:naming/1");
  ASSERT_EQ(trace->root.children[1].children.size(), 1u);
  EXPECT_EQ(trace->root.children[1].children[0].name, "rpc:gd.security/1");
  EXPECT_EQ(remote_span_total(trace->root), millis(8 + 15));
}

TEST(TraceCollector, ChainedFragmentsAttachTransitively) {
  // Server A's fragment parents on the client; server B's fragment parents
  // on a span INSIDE server A's fragment (A called B while traced).
  TraceCollector collector(8);
  collector.set_policy(keep_everything());

  SpanRecord a = make_span("rpc:location/2", 300, 0, millis(12));
  a.children.push_back(make_span("forward", 301, millis(1), millis(9)));

  // B arrives first, then A, then the root: attachment needs the fixpoint
  // pass, not one linear sweep.
  collector.record(
      fragment(9, 9, 301, make_span("rpc:location/2", 400, millis(2), millis(7))));
  collector.record(fragment(9, 9, 100, a));
  SpanRecord root = make_span("fetch", 100, 0, millis(20));
  collector.record(fragment(9, 9, 0, root));

  auto trace = collector.find(9, 9);
  ASSERT_TRUE(trace.has_value());
  EXPECT_TRUE(trace->complete);
  EXPECT_EQ(trace->fragments, 3u);
  ASSERT_EQ(trace->root.children.size(), 1u);
  const SpanRecord& stitched_a = trace->root.children[0];
  ASSERT_EQ(stitched_a.children.size(), 1u);
  ASSERT_EQ(stitched_a.children[0].children.size(), 1u);
  EXPECT_EQ(stitched_a.children[0].children[0].span_id, 400u);
  // remote_span_total stops at the MAXIMAL rpc: span — nested remote time
  // is not double counted.
  EXPECT_EQ(remote_span_total(trace->root), millis(12));
}

TEST(TraceCollector, OrphanFragmentsAttachToRootAndMarkIncomplete) {
  TraceCollector collector(8);
  collector.set_policy(keep_everything());
  collector.record(fragment(
      3, 3, 77777, make_span("rpc:gd.access/1", 500, millis(5), millis(3))));
  collector.record(fragment(3, 3, 0, make_span("fetch", 100, 0, millis(30))));

  auto trace = collector.find(3, 3);
  ASSERT_TRUE(trace.has_value());
  EXPECT_FALSE(trace->complete);
  EXPECT_EQ(trace->fragments, 2u);
  ASSERT_EQ(trace->root.children.size(), 1u);
  EXPECT_EQ(trace->root.children[0].span_id, 500u);
}

TEST(TraceCollector, UnsampledFragmentsAreDropped) {
  TraceCollector collector(8);
  collector.set_policy(keep_everything());
  TraceFragment f = fragment(4, 4, 0, make_span("fetch", 100, 0, millis(1)));
  f.sampled = false;
  collector.record(f);
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_EQ(collector.traces_seen(), 0u);
}

TEST(TraceCollector, TailSamplerKeepsEverySlowTrace) {
  TraceCollector collector(64);
  TailSamplingPolicy policy;
  policy.keep_slower_than = millis(100);
  policy.keep_one_in = 0;  // slow traces only
  collector.set_policy(policy);

  for (std::uint64_t i = 1; i <= 20; ++i) {
    // Every third trace is slow.
    util::SimDuration d = (i % 3 == 0) ? millis(150) : millis(10);
    collector.record(fragment(i, i, 0, make_span("fetch", 100, 0, d)));
  }
  EXPECT_EQ(collector.traces_seen(), 20u);
  EXPECT_EQ(collector.traces_kept(), 6u);  // 3, 6, ..., 18
  for (const auto& trace : collector.recent(64)) {
    EXPECT_GE(trace.duration(), millis(100));
  }
}

TEST(TraceCollector, TailSamplerKeepsOneInNOfTheFastTraces) {
  TraceCollector collector(64);
  TailSamplingPolicy policy;
  policy.keep_slower_than = millis(100);
  policy.keep_one_in = 4;
  collector.set_policy(policy);

  for (std::uint64_t i = 1; i <= 16; ++i) {
    collector.record(fragment(i, i, 0, make_span("fetch", 100, 0, millis(1))));
  }
  EXPECT_EQ(collector.traces_seen(), 16u);
  EXPECT_EQ(collector.traces_kept(), 4u);
}

TEST(TraceCollector, TailSamplerKeepsEveryTraceHoldingAWarning) {
  // Default policy, fast traces, none of them the 1-in-16th: a warning on
  // any span of the stitched tree keeps its trace, an info event does not,
  // and stitching carries the events through untouched.
  TraceCollector collector(8);
  SpanRecord refused = make_span("rpc:gd.admin/3", 201, millis(1), millis(2));
  refused.events.push_back({EventLevel::kWarn, millis(2), "server",
                            "admin_auth_failed", "srv-1: bad admin signature"});
  collector.record(fragment(1, 1, 100, refused));
  collector.record(fragment(1, 1, 0, make_span("refresh", 100, 0, millis(5))));

  SpanRecord quiet = make_span("fetch", 300, 0, millis(5));
  quiet.events.push_back({EventLevel::kInfo, millis(1), "proxy", "served", ""});
  collector.record(fragment(2, 2, 0, quiet));

  SpanRecord rejected = make_span("fetch", 400, 0, millis(5));
  rejected.children.push_back(make_span("element_verify", 401, 0, millis(1)));
  rejected.events.push_back({EventLevel::kError, millis(3), "proxy",
                             "element_rejected", "host1:8000: HASH_MISMATCH"});
  collector.record(fragment(3, 3, 0, rejected));

  EXPECT_EQ(collector.traces_seen(), 3u);
  EXPECT_EQ(collector.traces_kept(), 2u);
  EXPECT_FALSE(collector.find(2, 2).has_value());
  ASSERT_TRUE(collector.find(3, 3).has_value());

  auto trace = collector.find(1, 1);
  ASSERT_TRUE(trace.has_value());
  EXPECT_TRUE(trace->complete);
  EXPECT_TRUE(trace->root.events.empty());
  ASSERT_EQ(trace->root.children.size(), 1u);
  const SpanRecord& server = trace->root.children[0];
  ASSERT_EQ(server.events.size(), 1u);
  EXPECT_EQ(server.events[0].level, EventLevel::kWarn);
  EXPECT_EQ(server.events[0].time, millis(2));
  EXPECT_EQ(server.events[0].component, "server");
  EXPECT_EQ(server.events[0].event, "admin_auth_failed");
  EXPECT_EQ(server.events[0].detail, "srv-1: bad admin signature");
}

TEST(TraceCollector, RingEvictsOldestBeyondCapacity) {
  TraceCollector collector(4);
  collector.set_policy(keep_everything());
  for (std::uint64_t i = 1; i <= 10; ++i) {
    collector.record(fragment(i, i, 0, make_span("fetch", 100, 0, millis(i))));
  }
  EXPECT_EQ(collector.size(), 4u);
  EXPECT_EQ(collector.capacity(), 4u);
  EXPECT_FALSE(collector.find(1, 1).has_value());  // evicted
  EXPECT_TRUE(collector.find(10, 10).has_value());

  // recent() is newest first.
  auto recent = collector.recent(64);
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_EQ(recent[0].trace_hi, 10u);
  EXPECT_EQ(recent[3].trace_hi, 7u);
}

TEST(TraceCollector, RecentFiltersByMinDuration) {
  TraceCollector collector(16);
  collector.set_policy(keep_everything());
  for (std::uint64_t i = 1; i <= 8; ++i) {
    collector.record(
        fragment(i, i, 0, make_span("fetch", 100, 0, millis(10 * i))));
  }
  auto slow = collector.recent(64, millis(50));
  ASSERT_EQ(slow.size(), 4u);  // 50, 60, 70, 80 ms
  for (const auto& trace : slow) EXPECT_GE(trace.duration(), millis(50));
}

TEST(TraceCollector, PendingPoolIsBounded) {
  TraceCollector collector(4);
  collector.set_policy(keep_everything());
  // 5000 rootless fragments across 5000 traces: the pool must stay bounded
  // (whole oldest traces evicted), not grow without limit.
  for (std::uint64_t i = 1; i <= 5000; ++i) {
    collector.record(
        fragment(i, i, 42, make_span("rpc:naming/1", 200 + i, 0, millis(1))));
  }
  EXPECT_LE(collector.pending_fragments(), 4096u);

  // A late root for an evicted trace still assembles (as incomplete only if
  // its fragments were evicted — here they were, so no children).
  collector.record(fragment(1, 1, 0, make_span("fetch", 42, 0, millis(9))));
  auto trace = collector.find(1, 1);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->fragments, 1u);
  EXPECT_TRUE(trace->root.children.empty());
}

TEST(TraceCollector, ClearResetsEverything) {
  TraceCollector collector(8);
  collector.set_policy(keep_everything());
  collector.record(
      fragment(1, 1, 5, make_span("rpc:naming/1", 201, 0, millis(1))));
  collector.record(fragment(2, 2, 0, make_span("fetch", 100, 0, millis(1))));
  collector.clear();
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_EQ(collector.pending_fragments(), 0u);
  EXPECT_EQ(collector.traces_seen(), 0u);
  EXPECT_EQ(collector.traces_kept(), 0u);
}

}  // namespace
}  // namespace globe::obs
