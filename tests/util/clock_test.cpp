#include <gtest/gtest.h>

#include "util/clock.hpp"

namespace globe::util {
namespace {

TEST(ClockTest, DurationHelpers) {
  EXPECT_EQ(millis(3), 3'000'000u);
  EXPECT_EQ(micros(7), 7'000u);
  EXPECT_EQ(seconds(2), 2'000'000'000u);
  EXPECT_DOUBLE_EQ(to_millis(millis(250)), 250.0);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
}

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.now(), 100u);
  clock.advance(millis(5));
  EXPECT_EQ(clock.now(), 100u + millis(5));
  clock.set(seconds(1));
  EXPECT_EQ(clock.now(), seconds(1));
}

TEST(ClockTest, RealClockMonotonicEnough) {
  RealClock clock;
  SimTime a = clock.now();
  SimTime b = clock.now();
  EXPECT_GE(b, a);
  // Plausibly a modern date (after 2020-01-01 in Unix nanoseconds).
  EXPECT_GT(a, 1'577'836'800ull * kSecond);
}

}  // namespace
}  // namespace globe::util
