#ifndef RFED_FL_SHARD_AGG_H_
#define RFED_FL_SHARD_AGG_H_

#include <cstdint>
#include <vector>

#include "fl/robust_agg.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace rfed {

/// Server aggregation for cohorts of any size.
///
/// Every FedAvg-family mean in this repository adds its leaves on ONE
/// canonical pairwise reduction tree, fixed by the leaf order alone:
///
///   reduce(leaves[0..n)) =
///     n == 1 ? leaves[0]
///            : reduce(first h) + reduce(rest),  h = floor_pow2(n - 1)
///
/// i.e. the split peels the largest power of two strictly below n, and
/// every '+' is Tensor::AddInPlace(left, right). PairwiseTreeSum is the
/// recursive definition; StreamingTreeSum evaluates the same tree one
/// leaf at a time, which is what lets the server fold each update as it
/// arrives without ever holding the cohort's updates.
/// tests/scale_test.cc pins the two as byte-identical.

/// Canonical-tree plain sum over borrowed leaves (the recursive
/// definition). Used for sparse delta-map totals (core/delta_map.h).
Tensor PairwiseTreeSum(const std::vector<const Tensor*>& leaves);

/// One-leaf-at-a-time evaluation of the canonical tree (binary-counter
/// scheme: the stack holds the partial sums of the complete subtrees
/// matching the binary digits of the leaf count, so peak memory is
/// O(log n) tensors instead of O(n)). Push order must equal leaf order;
/// Finish() then returns bytes identical to PairwiseTreeSum over the same
/// leaves.
class StreamingTreeSum {
 public:
  /// Appends the next leaf (already scaled by the caller).
  void Push(Tensor leaf);

  /// Folds the remaining partials and returns the root; requires at least
  /// one Push. Resets the accumulator for reuse.
  Tensor Finish();

  int64_t leaves() const { return leaves_; }
  /// High-water mark of tensor bytes held by the accumulator.
  int64_t peak_bytes() const { return peak_bytes_; }

 private:
  struct Node {
    Tensor sum;
    int64_t width;  ///< number of leaves under this partial (power of two)
  };
  std::vector<Node> stack_;
  int64_t leaves_ = 0;
  int64_t tensor_bytes_ = 0;
  int64_t peak_bytes_ = 0;
};

// ---- Coordinate-sharded robust rules ----
// The robust aggregators are per-coordinate statistics, so they shard
// over coordinate blocks rather than clients: [0, size) is cut into one
// block per pool thread (times a small oversubscription factor) and each
// block runs the flat rule's range kernel (fl/robust_agg.h). The result
// is byte-identical to the flat rule for every pool size (nullptr = one
// block on the caller's thread), which is the invariance the scale tests
// demand.

Tensor ShardedTrimmedMean(const std::vector<Tensor>& values,
                          const std::vector<double>& weights,
                          double trim_fraction, ThreadPool* pool);

Tensor ShardedMedian(const std::vector<Tensor>& values,
                     const std::vector<double>& weights, ThreadPool* pool);

Tensor ShardedNormBoundedMean(const Tensor& reference,
                              const std::vector<Tensor>& values,
                              const std::vector<double>& weights,
                              double clip_multiplier, NormClipReport* report,
                              ThreadPool* pool);

}  // namespace rfed

#endif  // RFED_FL_SHARD_AGG_H_
