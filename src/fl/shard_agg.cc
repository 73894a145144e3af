#include "fl/shard_agg.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/check.h"

namespace rfed {
namespace {

/// Canonical split point of an n-leaf range (n >= 2): the largest power
/// of two strictly below n.
int64_t SplitPoint(int64_t n) {
  int64_t h = 1;
  while (h * 2 < n) h *= 2;
  return h;
}

/// Cuts [0, size) into roughly even contiguous blocks, one per task.
std::vector<std::pair<int64_t, int64_t>> CoordinateBlocks(int64_t size,
                                                          ThreadPool* pool) {
  const int tasks = pool == nullptr
                        ? 1
                        : static_cast<int>(std::min<int64_t>(
                              size, static_cast<int64_t>(pool->num_threads()) * 4));
  std::vector<std::pair<int64_t, int64_t>> blocks;
  const int n = std::max(tasks, 1);
  blocks.reserve(static_cast<size_t>(n));
  for (int b = 0; b < n; ++b) {
    const int64_t lo = size * b / n;
    const int64_t hi = size * (b + 1) / n;
    if (lo < hi) blocks.emplace_back(lo, hi);
  }
  return blocks;
}

void RunBlocks(const std::vector<std::pair<int64_t, int64_t>>& blocks,
               ThreadPool* pool,
               const std::function<void(int64_t, int64_t)>& fn) {
  if (pool != nullptr && blocks.size() > 1) {
    pool->ParallelFor(static_cast<int>(blocks.size()), [&](int b) {
      fn(blocks[static_cast<size_t>(b)].first,
         blocks[static_cast<size_t>(b)].second);
    });
  } else {
    for (const auto& [lo, hi] : blocks) fn(lo, hi);
  }
}

}  // namespace

Tensor PairwiseTreeSum(const std::vector<const Tensor*>& leaves) {
  RFED_CHECK(!leaves.empty());
  // Borrowed leaves, so callers need not copy their inputs up front.
  const std::function<Tensor(int64_t, int64_t)> reduce =
      [&](int64_t lo, int64_t n) -> Tensor {
    if (n == 1) return *leaves[static_cast<size_t>(lo)];
    const int64_t h = SplitPoint(n);
    Tensor left = reduce(lo, h);
    const Tensor right = reduce(lo + h, n - h);
    left.AddInPlace(right);
    return left;
  };
  return reduce(0, static_cast<int64_t>(leaves.size()));
}

void StreamingTreeSum::Push(Tensor leaf) {
  if (leaves_ == 0 && stack_.empty()) {
    tensor_bytes_ = leaf.size() * static_cast<int64_t>(sizeof(float));
  }
  peak_bytes_ = std::max(
      peak_bytes_,
      static_cast<int64_t>(stack_.size() + 1) * tensor_bytes_);
  Tensor sum = std::move(leaf);
  int64_t width = 1;
  // Binary-counter carry: two equal-width subtrees are adjacent in leaf
  // order, so older + newer is exactly the canonical pairing.
  while (!stack_.empty() && stack_.back().width == width) {
    stack_.back().sum.AddInPlace(sum);
    sum = std::move(stack_.back().sum);
    width *= 2;
    stack_.pop_back();
  }
  stack_.push_back(Node{std::move(sum), width});
  ++leaves_;
}

Tensor StreamingTreeSum::Finish() {
  RFED_CHECK(!stack_.empty());
  // Right-associated fold of the remaining partials (widths descending
  // from bottom to top of the stack) — the canonical tree of a non-power-
  // of-two leaf count splits off its largest power of two on the left,
  // which is exactly this fold.
  Tensor acc = std::move(stack_.back().sum);
  stack_.pop_back();
  while (!stack_.empty()) {
    stack_.back().sum.AddInPlace(acc);
    acc = std::move(stack_.back().sum);
    stack_.pop_back();
  }
  leaves_ = 0;
  return acc;
}

Tensor ShardedTrimmedMean(const std::vector<Tensor>& values,
                          const std::vector<double>& weights,
                          double trim_fraction, ThreadPool* pool) {
  RFED_CHECK(!values.empty());
  RFED_CHECK_GE(trim_fraction, 0.0);
  RFED_CHECK_LT(trim_fraction, 0.5);
  const size_t trim = ResolveTrimCount(trim_fraction, values.size());
  Tensor out(values[0].shape());
  RunBlocks(CoordinateBlocks(out.size(), pool), pool,
            [&](int64_t lo, int64_t hi) {
              TrimmedMeanRange(values, weights, trim, lo, hi, &out);
            });
  return out;
}

Tensor ShardedMedian(const std::vector<Tensor>& values,
                     const std::vector<double>& weights, ThreadPool* pool) {
  RFED_CHECK(!values.empty());
  double total_weight = 0.0;
  for (double w : weights) total_weight += w;
  RFED_CHECK_GT(total_weight, 0.0);
  Tensor out(values[0].shape());
  RunBlocks(CoordinateBlocks(out.size(), pool), pool,
            [&](int64_t lo, int64_t hi) {
              WeightedMedianRange(values, weights, total_weight, lo, hi, &out);
            });
  return out;
}

Tensor ShardedNormBoundedMean(const Tensor& reference,
                              const std::vector<Tensor>& values,
                              const std::vector<double>& weights,
                              double clip_multiplier, NormClipReport* report,
                              ThreadPool* pool) {
  // Phase 1 (per-update norms and clip scales) is sequential and shared
  // with the flat rule; only the per-coordinate accumulation shards.
  std::vector<Tensor> deltas;
  const std::vector<float> scales = NormClipScales(
      reference, values, weights, clip_multiplier, &deltas, report);
  Tensor out = reference;
  RunBlocks(CoordinateBlocks(out.size(), pool), pool,
            [&](int64_t lo, int64_t hi) {
              ClippedMeanRange(deltas, scales, lo, hi, &out);
            });
  return out;
}

}  // namespace rfed
