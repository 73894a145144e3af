#ifndef RFED_FL_ROBUST_AGG_H_
#define RFED_FL_ROBUST_AGG_H_

#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace rfed {

/// Server-side defenses against misbehaving clients (fl/adversary.h):
/// a validation pass that quarantines non-finite updates before they
/// touch any server state, and pluggable robust aggregation rules that
/// replace the FedAvg weighted mean. Configured via FlConfig::robust /
/// `--aggregator`; the defaults (validate on, aggregator "mean") are
/// bit-identical to the undefended simulator on clean runs, because the
/// screen only ever *removes* updates and the mean path is untouched.
struct RobustAggOptions {
  /// Aggregation rule applied to the round's surviving updates:
  ///   "mean"         — the FedAvg weighted average (the default).
  ///   "trimmed_mean" — coordinate-wise: drop the floor(trim_fraction*m)
  ///                    smallest and largest values per coordinate, then
  ///                    weighted-average the rest.
  ///   "median"       — coordinate-wise weighted median.
  ///   "norm_clip"    — norm-bounded mean: each update's delta from the
  ///                    current global is clipped to clip_multiplier x
  ///                    the median delta norm, then weighted-averaged.
  std::string aggregator = "mean";
  /// Per-side trim of "trimmed_mean". With m survivors, floor(trim * m)
  /// values fall off each end of every coordinate's sorted sample; a cut
  /// that would discard everything degrades to the coordinate median.
  double trim_fraction = 0.2;
  /// Norm bound of "norm_clip", as a multiple of the median delta norm.
  double clip_multiplier = 3.0;
  /// Non-finite screen: an arriving update (or rFedAvg feature map) with
  /// any NaN/Inf coordinate is quarantined — rejected before aggregation,
  /// map storage, or control-variate refresh — and counted in the
  /// `fl.quarantined_updates` / `fl.quarantined_maps` metrics plus the
  /// per-client rejection reputation. On by default; a no-op for finite
  /// updates, so it never changes a clean run.
  bool validate = true;

  bool mean() const { return aggregator == "mean"; }
};

/// True iff `name` is one of the RobustAggOptions aggregation rules.
bool KnownAggregator(const std::string& name);

/// Coordinate-wise trimmed mean of `values` (all the same shape) under
/// nonnegative `weights`: per coordinate, the floor(trim_fraction * m)
/// smallest and largest samples are discarded and the remainder is
/// weighted-averaged (weights renormalized over the kept samples). A trim
/// that would discard every sample degrades to the coordinate median.
/// Requires values nonempty and weights.size() == values.size().
Tensor CoordinateTrimmedMean(const std::vector<Tensor>& values,
                             const std::vector<double>& weights,
                             double trim_fraction);

/// Coordinate-wise weighted median: per coordinate, the sample at which
/// the cumulative (sorted-by-value) weight first reaches half the total.
Tensor CoordinateMedian(const std::vector<Tensor>& values,
                        const std::vector<double>& weights);

/// Outcome of the norm-bounded mean's clipping pass.
struct NormClipReport {
  int clipped = 0;          ///< updates whose delta norm exceeded the bound
  double median_norm = 0.0; ///< median delta L2 norm of the cohort
  double bound = 0.0;       ///< clip_multiplier * median_norm
  std::vector<double> norms;  ///< pre-clip delta norm of every update
};

/// Norm-bounded weighted mean: each value's delta from `reference` is
/// scaled down to L2 norm <= clip_multiplier * median(delta norms), then
/// the deltas are weighted-averaged and re-anchored at `reference`. The
/// defense of choice against scaled-update attacks: an attacker's
/// contribution is bounded by the honest majority's own scale. `report`
/// (may be null) receives the per-update norms and clip count.
Tensor NormBoundedMean(const Tensor& reference,
                       const std::vector<Tensor>& values,
                       const std::vector<double>& weights,
                       double clip_multiplier, NormClipReport* report);

// ---- Range kernels ----
// The per-coordinate loops of the rules above restricted to coordinates
// [lo, hi) of `out`. Coordinates are computed independently, so running
// disjoint ranges as parallel shard tasks (fl/shard_agg.h) is
// byte-identical to the flat rules — which are themselves just the
// [0, size) case of these kernels.

/// Per-side trim count CoordinateTrimmedMean uses for m samples.
size_t ResolveTrimCount(double trim_fraction, size_t m);

/// Trimmed-mean kernel; `trim` samples fall off each end (already
/// resolved via ResolveTrimCount by the caller).
void TrimmedMeanRange(const std::vector<Tensor>& values,
                      const std::vector<double>& weights, size_t trim,
                      int64_t lo, int64_t hi, Tensor* out);

/// Weighted-median kernel; `total_weight` is the sum of `weights`.
void WeightedMedianRange(const std::vector<Tensor>& values,
                         const std::vector<double>& weights,
                         double total_weight, int64_t lo, int64_t hi,
                         Tensor* out);

/// Clipped-mean kernel of NormBoundedMean: out_i += scales[j] *
/// deltas[j]_i accumulated in j order; `out` must already hold the
/// reference model over [lo, hi).
void ClippedMeanRange(const std::vector<Tensor>& deltas,
                      const std::vector<float>& scales, int64_t lo,
                      int64_t hi, Tensor* out);

/// Phase 1 of NormBoundedMean: fills `deltas` with values - reference and
/// returns the per-update clip scales (weights normalized and clipped to
/// the median-norm bound), populating `report` if non-null. The flat rule
/// is this followed by ClippedMeanRange over [0, size).
std::vector<float> NormClipScales(const Tensor& reference,
                                  const std::vector<Tensor>& values,
                                  const std::vector<double>& weights,
                                  double clip_multiplier,
                                  std::vector<Tensor>* deltas,
                                  NormClipReport* report);

}  // namespace rfed

#endif  // RFED_FL_ROBUST_AGG_H_
