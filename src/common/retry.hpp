#pragma once

#include <algorithm>
#include <cstdint>

#include "common/rng.hpp"

namespace tkmc {

/// Bounded-retry policy: total attempt budget plus a capped exponential
/// backoff curve with deterministic jitter. Used by the checkpoint
/// ShardStreamer (real sleeps between remote put attempts). The comm
/// ARQ (SimComm::receiveReliable) keeps a plain attempt bound instead:
/// its retransmissions stay inside the logical clock.
struct RetryPolicy {
  int maxAttempts = 5;        // total tries before giving up, >= 1
  double baseDelayMs = 2.0;   // backoff before the 2nd attempt
  double multiplier = 2.0;    // growth per failed attempt
  double maxDelayMs = 50.0;   // backoff cap
  double jitterFrac = 0.25;   // +/- fraction of the capped delay, in [0,1]
};

/// Per-operation retry schedule. Deterministic: the jitter stream is
/// seeded explicitly, so two schedules built from the same policy and
/// seed produce identical delay sequences (testable against a fake
/// clock, reproducible under --inject-seed).
class RetrySchedule {
 public:
  explicit RetrySchedule(const RetryPolicy& policy,
                         std::uint64_t jitterSeed = 0)
      : policy_(policy), jitter_(SplitMix64(jitterSeed ^ 0x72747279ULL)) {}

  /// Records one failed attempt and returns the backoff delay (in ms)
  /// to apply before the next try. Check exhausted() afterwards: once
  /// the attempt budget is consumed the caller gives up and the
  /// returned delay is meaningless.
  double recordFailure() {
    ++failures_;
    double delay = policy_.baseDelayMs;
    for (int i = 1; i < failures_; ++i) {
      delay *= policy_.multiplier;
      if (delay >= policy_.maxDelayMs) break;
    }
    delay = std::min(delay, policy_.maxDelayMs);
    if (policy_.jitterFrac > 0.0) {
      // Uniform in [-jitterFrac, +jitterFrac] of the capped delay.
      const double u =
          static_cast<double>(jitter_.next() >> 11) / 9007199254740992.0;
      delay *= 1.0 + policy_.jitterFrac * (2.0 * u - 1.0);
    }
    lastDelayMs_ = std::max(0.0, delay);
    return lastDelayMs_;
  }

  /// True once the operation has failed maxAttempts times.
  bool exhausted() const { return failures_ >= policy_.maxAttempts; }

  int failures() const { return failures_; }
  double lastDelayMs() const { return lastDelayMs_; }
  const RetryPolicy& policy() const { return policy_; }

 private:
  RetryPolicy policy_;
  SplitMix64 jitter_;
  int failures_ = 0;
  double lastDelayMs_ = 0.0;
};

}  // namespace tkmc
