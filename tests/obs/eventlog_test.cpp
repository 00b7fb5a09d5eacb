// Structured event log: trace stamping, level filtering, bounded ring,
// stderr lines for warnings and errors.
#include "obs/log.hpp"

#include <gtest/gtest.h>

#include "util/clock.hpp"

namespace globe::obs {
namespace {

using util::ManualClock;
using util::millis;

TEST(EventLog, RecordsAndReturnsNewestFirst) {
  EventLog log(16);
  log.emit(EventLevel::kInfo, "proxy", "first", "", millis(1));
  log.emit(EventLevel::kWarn, "proxy", "second", "detail", millis(2));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.emitted(), 2u);

  auto recent = log.recent(8);
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].event, "second");
  EXPECT_EQ(recent[0].level, EventLevel::kWarn);
  EXPECT_EQ(recent[0].detail, "detail");
  EXPECT_EQ(recent[0].time, millis(2));
  EXPECT_EQ(recent[1].event, "first");
}

TEST(EventLog, MinLevelFiltersCheaply) {
  EventLog log(16);
  log.set_min_level(EventLevel::kWarn);
  log.emit(EventLevel::kDebug, "proxy", "noise");
  log.emit(EventLevel::kInfo, "proxy", "chatter");
  log.emit(EventLevel::kError, "proxy", "boom");
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.recent(8)[0].event, "boom");
}

TEST(EventLog, RingBoundsMemory) {
  EventLog log(4);
  for (int i = 0; i < 100; ++i) {
    log.emit(EventLevel::kInfo, "proxy", "e" + std::to_string(i));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.capacity(), 4u);
  EXPECT_EQ(log.emitted(), 100u);
  EXPECT_EQ(log.recent(8)[0].event, "e99");
  EXPECT_EQ(log.recent(8)[3].event, "e96");
}

TEST(EventLog, StampsTheEmittingThreadsTraceContext) {
  EventLog log(16);
  ManualClock clock;
  Tracer tracer(clock);

  log.emit(EventLevel::kInfo, "proxy", "outside");
  std::uint64_t hi, lo, stage_span;
  {
    auto fetch = tracer.span("fetch");
    hi = tracer.trace_hi();
    lo = tracer.trace_lo();
    {
      auto stage = tracer.span("element_verify");
      stage_span = current_trace_context().parent_span;
      log.emit(EventLevel::kWarn, "proxy", "element_rejected", "logo.gif");
    }
  }

  auto recent = log.recent(8);
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].trace_hi, hi);
  EXPECT_EQ(recent[0].trace_lo, lo);
  EXPECT_EQ(recent[0].span_id, stage_span);
  EXPECT_EQ(recent[1].trace_hi, 0u);  // "outside" was not in a trace
  EXPECT_EQ(recent[1].span_id, 0u);

  // Join: every record of one trace, oldest first.
  auto joined = log.for_trace(hi, lo);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].event, "element_rejected");
  EXPECT_TRUE(log.for_trace(hi + 1, lo).empty());
}

TEST(EventRecord, JsonCarriesTraceIdOnlyInsideATrace) {
  EventRecord record;
  record.level = EventLevel::kWarn;
  record.time = 42;
  record.component = "replication";
  record.event = "pull_rejected";
  record.detail = "bad \"signature\"";
  std::string plain = record.to_json();
  EXPECT_EQ(plain,
            "{\"t\":42,\"level\":\"warn\",\"component\":\"replication\","
            "\"event\":\"pull_rejected\",\"detail\":\"bad \\\"signature\\\"\"}");

  record.trace_hi = 0xff;
  record.trace_lo = 1;
  record.span_id = 7;
  std::string traced = record.to_json();
  EXPECT_NE(traced.find("\"trace_id\":\"00000000000000ff0000000000000001\""),
            std::string::npos);
  EXPECT_NE(traced.find("\"span_id\":7"), std::string::npos);
}

TEST(EventLog, WarnAndAboveWriteOneStderrLineEach) {
  EventLog log(8);
  ::testing::internal::CaptureStderr();
  log.emit(EventLevel::kInfo, "proxy", "pull_installed", "v2");
  log.emit(EventLevel::kWarn, "proxy", "binding_failed", "host1:8000: kExpired");
  log.emit(EventLevel::kError, "replication", "gave_up");
  std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err,
            "[WARN] proxy: binding_failed: host1:8000: kExpired\n"
            "[ERROR] replication: gave_up\n");
  EXPECT_EQ(log.size(), 3u);  // the info record is kept, just not printed
}

TEST(EventLog, ClearResets) {
  EventLog log(8);
  log.emit(EventLevel::kInfo, "proxy", "x");
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.emitted(), 0u);
}

}  // namespace
}  // namespace globe::obs
