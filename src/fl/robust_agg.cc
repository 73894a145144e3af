#include "fl/robust_agg.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/check.h"

namespace rfed {

namespace {

/// Shared shape/weight validation of the aggregation rules.
void CheckInputs(const std::vector<Tensor>& values,
                 const std::vector<double>& weights) {
  RFED_CHECK(!values.empty());
  RFED_CHECK_EQ(values.size(), weights.size());
  for (const Tensor& v : values) {
    RFED_CHECK_EQ(v.size(), values[0].size());
  }
  for (double w : weights) RFED_CHECK_GE(w, 0.0);
}

/// Median of an unsorted sample (sorts a copy; even count averages the
/// middle pair).
double MedianOf(std::vector<double> sample) {
  RFED_CHECK(!sample.empty());
  std::sort(sample.begin(), sample.end());
  const size_t m = sample.size();
  return m % 2 == 1 ? sample[m / 2]
                    : 0.5 * (sample[m / 2 - 1] + sample[m / 2]);
}

}  // namespace

bool KnownAggregator(const std::string& name) {
  return name == "mean" || name == "trimmed_mean" || name == "median" ||
         name == "norm_clip";
}

size_t ResolveTrimCount(double trim_fraction, size_t m) {
  size_t trim = static_cast<size_t>(std::floor(trim_fraction *
                                               static_cast<double>(m)));
  // Keep at least one sample; an over-aggressive trim degrades to the
  // (per-coordinate) median-of-the-middle.
  if (2 * trim >= m) trim = (m - 1) / 2;
  return trim;
}

void TrimmedMeanRange(const std::vector<Tensor>& values,
                      const std::vector<double>& weights, size_t trim,
                      int64_t lo, int64_t hi, Tensor* out) {
  const size_t m = values.size();
  std::vector<std::pair<float, double>> sample(m);  // (value, weight)
  for (int64_t i = lo; i < hi; ++i) {
    for (size_t j = 0; j < m; ++j) {
      sample[j] = {values[j].at(i), weights[j]};
    }
    std::sort(sample.begin(), sample.end());
    double num = 0.0, den = 0.0;
    for (size_t j = trim; j < m - trim; ++j) {
      num += static_cast<double>(sample[j].first) * sample[j].second;
      den += sample[j].second;
    }
    // All kept weights zero (possible when the trim keeps only
    // zero-weight updates): fall back to the unweighted mean of the kept
    // values rather than dividing by zero.
    if (den <= 0.0) {
      for (size_t j = trim; j < m - trim; ++j) {
        num += static_cast<double>(sample[j].first);
        den += 1.0;
      }
    }
    out->at(i) = static_cast<float>(num / den);
  }
}

Tensor CoordinateTrimmedMean(const std::vector<Tensor>& values,
                             const std::vector<double>& weights,
                             double trim_fraction) {
  CheckInputs(values, weights);
  RFED_CHECK_GE(trim_fraction, 0.0);
  RFED_CHECK_LT(trim_fraction, 0.5);
  const size_t trim = ResolveTrimCount(trim_fraction, values.size());
  Tensor out(values[0].shape());
  TrimmedMeanRange(values, weights, trim, 0, out.size(), &out);
  return out;
}

void WeightedMedianRange(const std::vector<Tensor>& values,
                         const std::vector<double>& weights,
                         double total_weight, int64_t lo, int64_t hi,
                         Tensor* out) {
  const size_t m = values.size();
  std::vector<std::pair<float, double>> sample(m);
  for (int64_t i = lo; i < hi; ++i) {
    for (size_t j = 0; j < m; ++j) {
      sample[j] = {values[j].at(i), weights[j]};
    }
    std::sort(sample.begin(), sample.end());
    // Weighted median: first value whose cumulative weight reaches half.
    double cum = 0.0;
    float median = sample[m - 1].first;
    for (size_t j = 0; j < m; ++j) {
      cum += sample[j].second;
      if (cum >= 0.5 * total_weight) {
        median = sample[j].first;
        break;
      }
    }
    out->at(i) = median;
  }
}

Tensor CoordinateMedian(const std::vector<Tensor>& values,
                        const std::vector<double>& weights) {
  CheckInputs(values, weights);
  double total_weight = 0.0;
  for (double w : weights) total_weight += w;
  RFED_CHECK_GT(total_weight, 0.0);
  Tensor out(values[0].shape());
  WeightedMedianRange(values, weights, total_weight, 0, out.size(), &out);
  return out;
}

std::vector<float> NormClipScales(const Tensor& reference,
                                  const std::vector<Tensor>& values,
                                  const std::vector<double>& weights,
                                  double clip_multiplier,
                                  std::vector<Tensor>* deltas,
                                  NormClipReport* report) {
  CheckInputs(values, weights);
  RFED_CHECK_GT(clip_multiplier, 0.0);
  RFED_CHECK_EQ(reference.size(), values[0].size());
  const size_t m = values.size();

  deltas->clear();
  deltas->reserve(m);
  std::vector<double> norms(m);
  for (size_t j = 0; j < m; ++j) {
    Tensor d = values[j];
    d.SubInPlace(reference);
    norms[j] = std::sqrt(static_cast<double>(d.SquaredNorm()));
    deltas->push_back(std::move(d));
  }
  const double median_norm = MedianOf(norms);
  const double bound = clip_multiplier * median_norm;

  double weight_sum = 0.0;
  for (double w : weights) weight_sum += w;
  RFED_CHECK_GT(weight_sum, 0.0);

  int clipped = 0;
  std::vector<float> scales(m);
  for (size_t j = 0; j < m; ++j) {
    double scale = weights[j] / weight_sum;
    // bound == 0 (median norm zero, e.g. a cohort of no-op updates)
    // clips every nonzero delta to nothing rather than dividing by zero.
    if (norms[j] > bound) {
      ++clipped;
      scale *= norms[j] > 0.0 ? bound / norms[j] : 0.0;
    }
    scales[j] = static_cast<float>(scale);
  }
  if (report != nullptr) {
    report->clipped = clipped;
    report->median_norm = median_norm;
    report->bound = bound;
    report->norms = std::move(norms);
  }
  return scales;
}

void ClippedMeanRange(const std::vector<Tensor>& deltas,
                      const std::vector<float>& scales, int64_t lo,
                      int64_t hi, Tensor* out) {
  // Per coordinate this accumulates out_i += scales[j] * deltas[j]_i in j
  // order — the same float-op sequence as the flat rule's Axpy loop, so
  // any [lo, hi) partition of the coordinates is byte-identical to it.
  const size_t m = deltas.size();
  float* o = out->data();
  for (size_t j = 0; j < m; ++j) {
    const float s = scales[j];
    const float* d = deltas[j].data();
    for (int64_t i = lo; i < hi; ++i) {
      o[i] += s * d[i];
    }
  }
}

Tensor NormBoundedMean(const Tensor& reference,
                       const std::vector<Tensor>& values,
                       const std::vector<double>& weights,
                       double clip_multiplier, NormClipReport* report) {
  std::vector<Tensor> deltas;
  const std::vector<float> scales = NormClipScales(
      reference, values, weights, clip_multiplier, &deltas, report);
  Tensor out = reference;
  ClippedMeanRange(deltas, scales, 0, out.size(), &out);
  return out;
}

}  // namespace rfed
