#include <gtest/gtest.h>

#include <vector>

#include "common/retry.hpp"

namespace tkmc {
namespace {

/// Fake clock: accumulates the delays a schedule hands out, so the
/// backoff curve is testable without sleeping.
struct FakeClock {
  double nowMs = 0.0;
  void advance(double ms) { nowMs += ms; }
};

RetryPolicy noJitter(int attempts) {
  RetryPolicy p;
  p.maxAttempts = attempts;
  p.baseDelayMs = 2.0;
  p.multiplier = 2.0;
  p.maxDelayMs = 50.0;
  p.jitterFrac = 0.0;
  return p;
}

TEST(Retry, ZeroJitterFollowsTheCappedExponentialCurve) {
  RetrySchedule schedule(noJitter(7));
  FakeClock clock;
  std::vector<double> delays;
  while (!schedule.exhausted()) {
    const double d = schedule.recordFailure();
    if (!schedule.exhausted()) {
      delays.push_back(d);
      clock.advance(d);
    }
  }
  // 7 attempts = 6 waits: 2, 4, 8, 16, 32, then capped at 50.
  EXPECT_EQ(delays, (std::vector<double>{2, 4, 8, 16, 32, 50}));
  EXPECT_DOUBLE_EQ(clock.nowMs, 112.0);
  EXPECT_EQ(schedule.failures(), 7);
}

TEST(Retry, JitterStaysWithinTheConfiguredBand) {
  RetryPolicy p = noJitter(40);
  p.jitterFrac = 0.25;
  RetrySchedule schedule(p, /*jitterSeed=*/42);
  bool sawOffNominal = false;
  for (int i = 0; i < 30; ++i) {
    double nominal = p.baseDelayMs;
    for (int k = 0; k < i; ++k)
      nominal = std::min(nominal * p.multiplier, p.maxDelayMs);
    const double d = schedule.recordFailure();
    EXPECT_GE(d, nominal * (1.0 - p.jitterFrac)) << "failure " << i;
    EXPECT_LE(d, nominal * (1.0 + p.jitterFrac)) << "failure " << i;
    if (d != nominal) sawOffNominal = true;
  }
  EXPECT_TRUE(sawOffNominal);  // the jitter stream actually perturbs
}

TEST(Retry, SameSeedIsDeterministicAcrossSchedules) {
  RetryPolicy p = noJitter(10);
  p.jitterFrac = 0.25;
  RetrySchedule a(p, 7), b(p, 7), c(p, 8);
  bool seedsDiverge = false;
  for (int i = 0; i < 9; ++i) {
    const double da = a.recordFailure();
    EXPECT_DOUBLE_EQ(da, b.recordFailure()) << "failure " << i;
    if (da != c.recordFailure()) seedsDiverge = true;
  }
  EXPECT_TRUE(seedsDiverge);
}

TEST(Retry, GivesUpAfterExactlyTheAttemptBudget) {
  RetrySchedule schedule(noJitter(3));
  EXPECT_FALSE(schedule.exhausted());
  schedule.recordFailure();
  EXPECT_FALSE(schedule.exhausted());
  schedule.recordFailure();
  EXPECT_FALSE(schedule.exhausted());
  schedule.recordFailure();
  EXPECT_TRUE(schedule.exhausted());

  // A one-shot policy gives up on the first failure, with zero delays.
  RetryPolicy oneShot = noJitter(1);
  oneShot.baseDelayMs = 0.0;
  oneShot.maxDelayMs = 0.0;
  RetrySchedule arq(oneShot);
  EXPECT_FALSE(arq.exhausted());
  EXPECT_DOUBLE_EQ(arq.recordFailure(), 0.0);
  EXPECT_TRUE(arq.exhausted());
}

TEST(Retry, TotalBackoffIsBoundedByTheCap) {
  RetryPolicy p = noJitter(50);
  p.jitterFrac = 0.25;
  RetrySchedule schedule(p, 3);
  FakeClock clock;
  while (!schedule.exhausted()) clock.advance(schedule.recordFailure());
  // Every wait is at most (1 + jitter) * maxDelayMs, so a dead remote
  // costs bounded wall time no matter the budget.
  EXPECT_LE(clock.nowMs, 50 * (1.0 + p.jitterFrac) * p.maxDelayMs);
  EXPECT_GT(clock.nowMs, 0.0);
}

}  // namespace
}  // namespace tkmc
