#ifndef RFED_OBS_METRICS_H_
#define RFED_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rfed {
namespace obs {

// Process-global metrics registry: named counters, gauges and
// fixed-bucket histograms. The naming convention and the full table of
// metrics emitted by this repo live in docs/OBSERVABILITY.md.
//
// Determinism: counters are monotone sums of per-event increments and
// gauges publish single values, so snapshots taken at quiescent points
// (between rounds) are independent of thread interleaving — the per-round
// CSV columns derived from them are byte-stable across `num_threads`.
// Handles returned by the registry are valid for the process lifetime;
// hot paths should look up once and cache the pointer.

/// Monotone counter (int64). Add() is a relaxed atomic fetch-add, safe
/// from any thread.
class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-writer-wins gauge (double). For "current level" readings such as
/// scratch-arena peak bytes.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. A sample v lands in the first bucket with
/// v <= edge, or in the overflow bucket when v exceeds every edge.
/// Bucket counts are relaxed atomics, so Observe() is thread-safe and
/// the bucket totals are interleaving-independent.
class Histogram {
 public:
  /// `edges` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> edges);

  void Observe(double v);
  int64_t TotalCount() const;

  const std::vector<double>& edges() const { return edges_; }
  /// Count in bucket i (i == edges().size() is the overflow bucket).
  int64_t BucketCount(size_t i) const;

  void Reset();

 private:
  std::vector<double> edges_;
  std::vector<std::atomic<int64_t>> buckets_;  // edges_.size() + 1
};

/// One metric's value flattened to (name, value) pairs. Histograms
/// expand to one entry per bucket (`name.le<edge>`, `name.over`) plus
/// `name.count`.
struct MetricSample {
  std::string name;
  double value = 0.0;
  /// True for counters/histograms (per-round deltas are meaningful);
  /// false for gauges (report the absolute reading).
  bool cumulative = true;
};

/// Global name → metric registry. GetCounter/GetGauge/GetHistogram
/// create on first use and return the same handle thereafter. A name is
/// bound to one kind for the process lifetime; re-requesting it as a
/// different kind aborts. GetHistogram ignores `edges` after creation.
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name, std::vector<double> edges);

  /// Flattened snapshot of every registered metric, sorted by name.
  std::vector<MetricSample> Snapshot() const;

  /// Zeroes every metric (values only — registrations are kept).
  void ResetAll();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Subtracts `base` from `now` entrywise: cumulative samples report
/// now - base (skipping zero deltas is left to the caller); gauge
/// samples report their absolute `now` value. Names present only in
/// `now` are kept (base treated as 0).
std::vector<std::pair<std::string, double>> SnapshotDelta(
    const std::vector<MetricSample>& base, const std::vector<MetricSample>& now);

}  // namespace obs
}  // namespace rfed

#endif  // RFED_OBS_METRICS_H_
