#ifndef RFED_FL_CHANNEL_H_
#define RFED_FL_CHANNEL_H_

#include <cstdint>

#include "fl/comm.h"
#include "obs/metrics.h"
#include "util/backoff.h"
#include "util/rng.h"

namespace rfed {

/// Knobs of the simulated transport's fault model. All probabilities are
/// per *attempt*; with everything at zero the channel is a transparent
/// pass-through that charges the CommStats ledger exactly like the
/// direct calls it replaced and consumes no random draws, so fault-free
/// runs are bit-identical to the pre-channel simulator.
struct FaultOptions {
  double drop_prob = 0.0;       ///< message silently lost in flight
  double corrupt_prob = 0.0;    ///< payload corrupted (receiver rejects it)
  double duplicate_prob = 0.0;  ///< delivered twice; the copy costs bandwidth
  double delay_prob = 0.0;      ///< message held up by a straggling link
  double mean_delay_ms = 50.0;  ///< mean of the exponential delay draw
  /// Messages whose accumulated latency (delays + retry backoff) exceeds
  /// this miss the round and count as timed out; 0 = wait forever.
  double round_timeout_ms = 250.0;
  /// Retransmissions attempted after a *detected* failure (corruption or
  /// timeout) or a loss the sender infers from a missing ack. 0 = none.
  int max_retries = 0;
  BackoffPolicy backoff;  ///< pacing between retransmissions

  bool enabled() const {
    return drop_prob > 0.0 || corrupt_prob > 0.0 || duplicate_prob > 0.0 ||
           delay_prob > 0.0;
  }
};

/// Which way a transfer flows; determines the CommStats side it charges.
enum class ChannelDirection { kDownload, kUpload };

/// Message-type tag for per-kind byte accounting in the metrics registry
/// (`comm.{down,up}_bytes.<kind>`). Callers pass one of these literals to
/// Send/Download/Upload; the default covers the common model transfer.
namespace channel_kind {
inline constexpr const char* kModel = "model";      ///< global model broadcast
inline constexpr const char* kUpdate = "update";    ///< trained client update
inline constexpr const char* kMap = "map";          ///< rFedAvg/+ δ-map traffic
inline constexpr const char* kControl = "control";  ///< SCAFFOLD control variates
}  // namespace channel_kind

/// Message-level delivery counters, cumulative and per-round. One
/// "delivered" or "dropped" tick per *logical* message; retries,
/// duplicates, corruptions and timeouts count the individual attempts.
struct ChannelStats {
  int64_t delivered = 0;
  int64_t dropped = 0;    ///< logical messages that never arrived
  int64_t retried = 0;    ///< retransmission attempts
  int64_t corrupted = 0;  ///< attempts rejected as corrupt
  int64_t duplicated = 0; ///< redundant copies delivered
  int64_t timed_out = 0;  ///< attempts that missed the round deadline
  int64_t round_delivered = 0;
  int64_t round_dropped = 0;
  int64_t round_retried = 0;

  void BeginRound() {
    round_delivered = 0;
    round_dropped = 0;
    round_retried = 0;
  }
};

/// Exact transport state captured by run checkpoints: the fault-lottery
/// RNG position, the cumulative delivery counters, and the latency of
/// the most recent transfer. Restoring it resumes the fault pattern
/// bit-identically mid-run.
struct ChannelState {
  RngState rng;
  ChannelStats stats;
  double last_latency_ms = 0.0;
};

/// Simulated lossy transport between the server and its clients. Every
/// transfer an algorithm used to charge straight to CommStats now goes
/// through Send(), which plays a seeded fault lottery per attempt: the
/// message can be dropped, corrupted (detected and rejected by the
/// receiver), delayed past the round deadline, or duplicated. Failures
/// are retried up to FaultOptions::max_retries times under the
/// exponential-backoff policy; every attempt — including failed ones and
/// duplicate copies — occupies the wire and is charged to the ledger.
///
/// The channel owns its own RNG stream (derived from the config seed),
/// so enabling faults never perturbs the training randomness, and a
/// fixed seed reproduces the exact fault pattern.
class FaultChannel {
 public:
  FaultChannel(const FaultOptions& options, uint64_t seed, CommStats* ledger);

  /// Attempts delivery of one logical message of `bytes` bytes tagged
  /// with a `channel_kind` literal for per-kind byte metrics. Returns
  /// true iff a copy arrived within the round deadline.
  bool Send(ChannelDirection direction, int64_t bytes,
            const char* kind = channel_kind::kModel);

  bool Download(int64_t bytes, const char* kind = channel_kind::kModel) {
    return Send(ChannelDirection::kDownload, bytes, kind);
  }
  bool Upload(int64_t bytes, const char* kind = channel_kind::kModel) {
    return Send(ChannelDirection::kUpload, bytes, kind);
  }

  /// Resets the per-round delivery counters (and the ledger's, if the
  /// caller has not already done so, is harmless to repeat).
  void BeginRound() { stats_.BeginRound(); }

  const ChannelStats& stats() const { return stats_; }
  const FaultOptions& options() const { return options_; }

  /// Simulated latency (fault delays + retry backoff) accumulated by the
  /// most recent Send, whether or not it was delivered. The sim
  /// runtime folds this into the sender's virtual transfer time; 0 on
  /// the fault-free pass-through path.
  double last_latency_ms() const { return last_latency_ms_; }

  /// Swaps the fault model mid-run (tests use this to toggle regimes);
  /// the RNG stream and counters carry over.
  void set_options(const FaultOptions& options) { options_ = options; }

  /// Snapshot / restore of the lottery stream and counters
  /// (checkpointing). Does not touch the CommStats ledger, which the
  /// run checkpoint restores separately.
  ChannelState SaveState() const {
    ChannelState state;
    state.rng = rng_.SaveState();
    state.stats = stats_;
    state.last_latency_ms = last_latency_ms_;
    return state;
  }
  void LoadState(const ChannelState& state) {
    rng_.LoadState(state.rng);
    stats_ = state.stats;
    last_latency_ms_ = state.last_latency_ms;
  }

 private:
  /// Outcome of one attempt of the per-attempt fault lottery.
  enum class Attempt { kDelivered, kDropped, kCorrupted, kTimedOut };

  /// Plays the lottery for one attempt, adding any simulated latency to
  /// *latency_ms.
  Attempt AttemptOnce(double* latency_ms);

  void Charge(ChannelDirection direction, int64_t bytes, const char* kind);

  FaultOptions options_;
  CommStats* ledger_;
  Rng rng_;
  ChannelStats stats_;
  double last_latency_ms_ = 0.0;

  // Registry handles, resolved once at construction (registered eagerly
  // so every run's CSV has the same metric columns).
  obs::Counter* m_delivered_;
  obs::Counter* m_dropped_;
  obs::Counter* m_retried_;
  obs::Counter* m_corrupted_;
  obs::Counter* m_duplicated_;
  obs::Counter* m_timed_out_;
  obs::Counter* m_down_bytes_;
  obs::Counter* m_up_bytes_;
};

}  // namespace rfed

#endif  // RFED_FL_CHANNEL_H_
