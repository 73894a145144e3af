// Exhaustive unit tests for the fault-injecting transport: backoff
// schedule determinism, fault probabilities honored under a fixed seed,
// and retry/timeout accounting on the CommStats ledger.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "fl/channel.h"
#include "fl/comm.h"
#include "util/backoff.h"
#include "util/rng.h"

namespace rfed {
namespace {

// ---- BackoffDelayMs ----

TEST(BackoffTest, GeometricGrowthWithoutJitterIsExact) {
  BackoffPolicy policy;  // 10ms initial, x2, 1000ms cap, no jitter
  EXPECT_DOUBLE_EQ(BackoffDelayMs(policy, 0, nullptr), 10.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(policy, 1, nullptr), 20.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(policy, 2, nullptr), 40.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(policy, 3, nullptr), 80.0);
}

TEST(BackoffTest, DelayIsCappedForLargeAttemptCounts) {
  BackoffPolicy policy;
  EXPECT_DOUBLE_EQ(BackoffDelayMs(policy, 20, nullptr), policy.max_ms);
  // Even absurd attempt counts must not overflow past the cap.
  EXPECT_DOUBLE_EQ(BackoffDelayMs(policy, 10000, nullptr), policy.max_ms);
}

TEST(BackoffTest, JitterIsSeededAndStaysInBand) {
  BackoffPolicy policy;
  policy.jitter = 0.5;
  Rng a(7), b(7);
  for (int attempt = 0; attempt < 8; ++attempt) {
    const double nominal =
        BackoffDelayMs(BackoffPolicy{}, attempt, nullptr);
    const double da = BackoffDelayMs(policy, attempt, &a);
    const double db = BackoffDelayMs(policy, attempt, &b);
    EXPECT_DOUBLE_EQ(da, db) << "attempt " << attempt;
    EXPECT_GE(da, nominal * 0.5 - 1e-9);
    EXPECT_LE(da, policy.max_ms);
  }
}

// ---- Fault-free channel: transparent pass-through ----

TEST(FaultChannelTest, DisabledChannelMatchesDirectLedgerCharges) {
  CommStats direct, routed;
  FaultChannel channel(FaultOptions{}, /*seed=*/1, &routed);
  direct.BeginRound();
  channel.BeginRound();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(channel.Download(100));
    EXPECT_TRUE(channel.Upload(40));
    direct.Download(100);
    direct.Upload(40);
  }
  EXPECT_EQ(routed.total_down_bytes(), direct.total_down_bytes());
  EXPECT_EQ(routed.total_up_bytes(), direct.total_up_bytes());
  EXPECT_EQ(routed.down_messages(), direct.down_messages());
  EXPECT_EQ(routed.up_messages(), direct.up_messages());
  EXPECT_EQ(channel.stats().delivered, 10);
  EXPECT_EQ(channel.stats().dropped, 0);
  EXPECT_EQ(channel.stats().retried, 0);
}

// ---- Probabilities honored under a fixed seed ----

TEST(FaultChannelTest, DropProbabilityHonored) {
  FaultOptions fault;
  fault.drop_prob = 0.3;
  fault.round_timeout_ms = 0.0;
  CommStats ledger;
  FaultChannel channel(fault, /*seed=*/42, &ledger);
  const int n = 20000;
  int delivered = 0;
  for (int i = 0; i < n; ++i) delivered += channel.Upload(10) ? 1 : 0;
  const double frac = static_cast<double>(delivered) / n;
  EXPECT_NEAR(frac, 0.7, 0.02);
  EXPECT_EQ(channel.stats().delivered + channel.stats().dropped, n);
  // No retries configured: exactly one attempt (= one charge) per send.
  EXPECT_EQ(ledger.up_messages(), n);
  EXPECT_EQ(ledger.total_up_bytes(), 10 * static_cast<int64_t>(n));
}

TEST(FaultChannelTest, CorruptProbabilityHonored) {
  FaultOptions fault;
  fault.corrupt_prob = 0.25;
  fault.round_timeout_ms = 0.0;
  CommStats ledger;
  FaultChannel channel(fault, /*seed=*/43, &ledger);
  const int n = 20000;
  for (int i = 0; i < n; ++i) channel.Download(8);
  const double frac =
      static_cast<double>(channel.stats().corrupted) / n;
  EXPECT_NEAR(frac, 0.25, 0.02);
  // Every corrupted attempt is a detected failure: without retries the
  // logical message is lost.
  EXPECT_EQ(channel.stats().corrupted, channel.stats().dropped);
}

TEST(FaultChannelTest, DuplicateProbabilityHonoredAndCharged) {
  FaultOptions fault;
  fault.duplicate_prob = 1.0;
  fault.round_timeout_ms = 0.0;
  CommStats ledger;
  FaultChannel channel(fault, /*seed=*/44, &ledger);
  const int n = 500;
  for (int i = 0; i < n; ++i) EXPECT_TRUE(channel.Upload(16));
  EXPECT_EQ(channel.stats().delivered, n);
  EXPECT_EQ(channel.stats().duplicated, n);
  // The redundant copy costs bandwidth: two charges per send.
  EXPECT_EQ(ledger.up_messages(), 2 * static_cast<int64_t>(n));
  EXPECT_EQ(ledger.total_up_bytes(), 2 * 16 * static_cast<int64_t>(n));
}

TEST(FaultChannelTest, DelayProbabilityHonoredViaTimeouts) {
  FaultOptions fault;
  fault.delay_prob = 0.4;
  fault.mean_delay_ms = 1e9;  // any delayed message misses the deadline
  fault.round_timeout_ms = 10.0;
  CommStats ledger;
  FaultChannel channel(fault, /*seed=*/45, &ledger);
  const int n = 20000;
  int delivered = 0;
  for (int i = 0; i < n; ++i) delivered += channel.Download(4) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(channel.stats().timed_out) / n, 0.4, 0.02);
  EXPECT_EQ(delivered, channel.stats().delivered);
  EXPECT_EQ(channel.stats().timed_out, channel.stats().dropped);
}

TEST(FaultChannelTest, SameSeedReproducesIdenticalOutcomes) {
  FaultOptions fault;
  fault.drop_prob = 0.2;
  fault.corrupt_prob = 0.1;
  fault.duplicate_prob = 0.1;
  fault.delay_prob = 0.2;
  fault.mean_delay_ms = 100.0;
  fault.round_timeout_ms = 150.0;
  fault.max_retries = 2;
  CommStats la, lb;
  FaultChannel a(fault, /*seed=*/7, &la);
  FaultChannel b(fault, /*seed=*/7, &lb);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.Send(ChannelDirection::kDownload, 32),
              b.Send(ChannelDirection::kDownload, 32));
  }
  EXPECT_EQ(a.stats().delivered, b.stats().delivered);
  EXPECT_EQ(a.stats().dropped, b.stats().dropped);
  EXPECT_EQ(a.stats().retried, b.stats().retried);
  EXPECT_EQ(a.stats().corrupted, b.stats().corrupted);
  EXPECT_EQ(a.stats().duplicated, b.stats().duplicated);
  EXPECT_EQ(a.stats().timed_out, b.stats().timed_out);
  EXPECT_EQ(la.total_bytes(), lb.total_bytes());
  EXPECT_EQ(la.down_messages(), lb.down_messages());
}

// ---- Retry + backoff ----

TEST(FaultChannelTest, RetriesRecoverMostDrops) {
  FaultOptions fault;
  fault.drop_prob = 0.5;
  fault.max_retries = 4;
  fault.round_timeout_ms = 0.0;  // wait forever: backoff never times out
  CommStats ledger;
  FaultChannel channel(fault, /*seed=*/46, &ledger);
  const int n = 4000;
  int delivered = 0;
  for (int i = 0; i < n; ++i) delivered += channel.Upload(10) ? 1 : 0;
  // P(all 5 attempts dropped) = 0.5^5 ~ 3.1%.
  EXPECT_NEAR(static_cast<double>(delivered) / n, 1.0 - 0.03125, 0.01);
  EXPECT_GT(channel.stats().retried, 0);
  // Every attempt (first try or retry) occupied the wire.
  EXPECT_EQ(ledger.up_messages(),
            channel.stats().delivered + channel.stats().dropped +
                channel.stats().retried);
}

TEST(FaultChannelTest, BackoffIsCappedByRoundDeadline) {
  // drop_prob 1 forces exhaustion; backoff 40/80/... against a 50ms
  // deadline allows exactly one resend before the round moves on.
  FaultOptions fault;
  fault.drop_prob = 1.0;
  fault.max_retries = 10;
  fault.round_timeout_ms = 50.0;
  fault.backoff.initial_ms = 40.0;
  CommStats ledger;
  FaultChannel channel(fault, /*seed=*/47, &ledger);
  const int n = 100;
  for (int i = 0; i < n; ++i) EXPECT_FALSE(channel.Upload(10));
  EXPECT_EQ(channel.stats().dropped, n);
  // Per message: first try + one retry at latency 40ms; the second retry
  // would start at 40+80=120ms > 50ms, so the sender gives up.
  EXPECT_EQ(channel.stats().retried, 2 * static_cast<int64_t>(n));
  EXPECT_EQ(ledger.up_messages(), 2 * static_cast<int64_t>(n));
}

// ---- Per-round bookkeeping ----

TEST(FaultChannelTest, BeginRoundResetsRoundCountersOnly) {
  FaultOptions fault;
  fault.drop_prob = 0.5;
  fault.round_timeout_ms = 0.0;
  CommStats ledger;
  FaultChannel channel(fault, /*seed=*/50, &ledger);
  for (int i = 0; i < 100; ++i) channel.Upload(1);
  const int64_t total_before =
      channel.stats().delivered + channel.stats().dropped;
  EXPECT_EQ(total_before, 100);
  EXPECT_EQ(channel.stats().round_delivered, channel.stats().delivered);
  channel.BeginRound();
  EXPECT_EQ(channel.stats().round_delivered, 0);
  EXPECT_EQ(channel.stats().round_dropped, 0);
  EXPECT_EQ(channel.stats().round_retried, 0);
  EXPECT_EQ(channel.stats().delivered + channel.stats().dropped, 100);
}

}  // namespace
}  // namespace rfed
