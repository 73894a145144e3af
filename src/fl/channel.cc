#include "fl/channel.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "util/check.h"

namespace rfed {

namespace {

// Per-(direction, kind) byte counters, e.g. "comm.up_bytes.map". Kinds
// are a small closed set of literals (channel_kind::*), so a lazy map
// keyed by pointer identity avoids string hashing on every message.
obs::Counter* KindBytesCounter(ChannelDirection direction, const char* kind) {
  static std::mutex mu;
  static std::map<std::pair<int, const char*>, obs::Counter*> cache;
  const std::pair<int, const char*> key(
      direction == ChannelDirection::kDownload ? 0 : 1, kind);
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  const std::string name =
      std::string(direction == ChannelDirection::kDownload ? "comm.down_bytes."
                                                           : "comm.up_bytes.") +
      kind;
  obs::Counter* c = obs::MetricsRegistry::Get().GetCounter(name);
  cache.emplace(key, c);
  return c;
}

}  // namespace

FaultChannel::FaultChannel(const FaultOptions& options, uint64_t seed,
                           CommStats* ledger)
    : options_(options), ledger_(ledger), rng_(seed) {
  RFED_CHECK(ledger_ != nullptr);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Get();
  m_delivered_ = reg.GetCounter("channel.delivered");
  m_dropped_ = reg.GetCounter("channel.dropped");
  m_retried_ = reg.GetCounter("channel.retried");
  m_corrupted_ = reg.GetCounter("channel.corrupted");
  m_duplicated_ = reg.GetCounter("channel.duplicated");
  m_timed_out_ = reg.GetCounter("channel.timed_out");
  m_down_bytes_ = reg.GetCounter("comm.down_bytes");
  m_up_bytes_ = reg.GetCounter("comm.up_bytes");
  RFED_CHECK_GE(options_.drop_prob, 0.0);
  RFED_CHECK_LE(options_.drop_prob, 1.0);
  RFED_CHECK_GE(options_.corrupt_prob, 0.0);
  RFED_CHECK_LE(options_.corrupt_prob, 1.0);
  RFED_CHECK_GE(options_.duplicate_prob, 0.0);
  RFED_CHECK_LE(options_.duplicate_prob, 1.0);
  RFED_CHECK_GE(options_.delay_prob, 0.0);
  RFED_CHECK_LE(options_.delay_prob, 1.0);
  RFED_CHECK_GE(options_.max_retries, 0);
}

void FaultChannel::Charge(ChannelDirection direction, int64_t bytes,
                          const char* kind) {
  if (direction == ChannelDirection::kDownload) {
    ledger_->Download(bytes);
    m_down_bytes_->Add(bytes);
  } else {
    ledger_->Upload(bytes);
    m_up_bytes_->Add(bytes);
  }
  KindBytesCounter(direction, kind)->Add(bytes);
}

FaultChannel::Attempt FaultChannel::AttemptOnce(double* latency_ms) {
  if (options_.drop_prob > 0.0 && rng_.Uniform() < options_.drop_prob) {
    return Attempt::kDropped;
  }
  if (options_.corrupt_prob > 0.0 && rng_.Uniform() < options_.corrupt_prob) {
    return Attempt::kCorrupted;
  }
  if (options_.delay_prob > 0.0 && rng_.Uniform() < options_.delay_prob) {
    // Exponentially distributed link delay.
    *latency_ms += -options_.mean_delay_ms * std::log(1.0 - rng_.Uniform());
  }
  if (options_.round_timeout_ms > 0.0 &&
      *latency_ms > options_.round_timeout_ms) {
    return Attempt::kTimedOut;
  }
  return Attempt::kDelivered;
}

bool FaultChannel::Send(ChannelDirection direction, int64_t bytes,
                        const char* kind) {
  last_latency_ms_ = 0.0;
  if (!options_.enabled()) {
    // Transparent pass-through: same charges, no random draws.
    Charge(direction, bytes, kind);
    ++stats_.delivered;
    ++stats_.round_delivered;
    m_delivered_->Increment();
    return true;
  }
  double latency_ms = 0.0;
  const int attempts = 1 + options_.max_retries;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retried;
      ++stats_.round_retried;
      m_retried_->Increment();
      latency_ms += BackoffDelayMs(options_.backoff, attempt - 1, &rng_);
      if (options_.round_timeout_ms > 0.0 &&
          latency_ms > options_.round_timeout_ms) {
        ++stats_.timed_out;  // the deadline passed while backing off
        m_timed_out_->Increment();
        break;
      }
    }
    Charge(direction, bytes, kind);  // every attempt occupies the wire
    switch (AttemptOnce(&latency_ms)) {
      case Attempt::kDelivered:
        if (options_.duplicate_prob > 0.0 &&
            rng_.Uniform() < options_.duplicate_prob) {
          Charge(direction, bytes, kind);  // the redundant copy also costs
          ++stats_.duplicated;
          m_duplicated_->Increment();
        }
        ++stats_.delivered;
        ++stats_.round_delivered;
        m_delivered_->Increment();
        last_latency_ms_ = latency_ms;
        return true;
      case Attempt::kDropped:
        break;
      case Attempt::kCorrupted:
        ++stats_.corrupted;
        m_corrupted_->Increment();
        break;
      case Attempt::kTimedOut:
        ++stats_.timed_out;
        m_timed_out_->Increment();
        break;
    }
  }
  ++stats_.dropped;
  ++stats_.round_dropped;
  m_dropped_->Increment();
  last_latency_ms_ = latency_ms;
  return false;
}

}  // namespace rfed
