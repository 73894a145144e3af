#include "test_util.h"

#include <algorithm>
#include <cmath>

namespace rfed::testing {

double MaxGradCheckError(const std::function<Variable()>& build_loss,
                         const std::vector<Variable*>& leaves,
                         double epsilon) {
  // Analytic gradients.
  for (Variable* leaf : leaves) leaf->ZeroGrad();
  Variable loss = build_loss();
  loss.Backward();
  std::vector<Tensor> analytic;
  analytic.reserve(leaves.size());
  for (Variable* leaf : leaves) {
    analytic.push_back(leaf->has_grad() ? leaf->grad()
                                        : Tensor(leaf->value().shape()));
  }

  double max_err = 0.0;
  for (size_t li = 0; li < leaves.size(); ++li) {
    Variable* leaf = leaves[li];
    Tensor& value = leaf->mutable_value();
    for (int64_t i = 0; i < value.size(); ++i) {
      const float original = value.at(i);
      value.at(i) = original + static_cast<float>(epsilon);
      const double plus =
          static_cast<double>(build_loss().value().ToScalar());
      value.at(i) = original - static_cast<float>(epsilon);
      const double minus =
          static_cast<double>(build_loss().value().ToScalar());
      value.at(i) = original;
      const double numeric = (plus - minus) / (2.0 * epsilon);
      const double err =
          std::fabs(numeric - static_cast<double>(analytic[li].at(i)));
      max_err = std::max(max_err, err);
    }
  }
  return max_err;
}

Tensor PatternTensor(Shape shape, float scale) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t.at(i) = scale * std::sin(0.7f * static_cast<float>(i) + 0.3f);
  }
  return t;
}

std::vector<KernelIsa> AvailableKernelIsas() {
  std::vector<KernelIsa> isas{KernelIsa::kGeneric};
  if (KernelAvx2Available()) isas.push_back(KernelIsa::kAvx2);
  if (KernelAvx512Available()) isas.push_back(KernelIsa::kAvx512);
  return isas;
}

void PoolWindowRule(const float in[4], float bias, float* out,
                    uint8_t* window) {
  float best = std::max(0.0f, in[0] + bias);
  uint8_t k_best = 0;
  for (uint8_t k = 1; k < 4; ++k) {
    const float r = std::max(0.0f, in[k] + bias);
    if (r > best) {
      best = r;
      k_best = k;
    }
  }
  *out = best;
  *window = k_best;
}

void RefConvReluPool(const float* x, const float* w, const float* bias,
                     const ConvKernelShape& s, std::vector<float>* out,
                     std::vector<uint8_t>* window) {
  const int64_t ho = s.OutH(), wo = s.OutW();
  const int64_t planes = s.batch * s.out_channels;
  std::vector<float> sums(static_cast<size_t>(planes * ho * wo), 0.0f);
  ref::Conv2dForwardKernel(x, w, bias, s, sums.data());
  out->resize(sums.size() / 4);
  window->resize(out->size());
  size_t o = 0;
  for (int64_t p = 0; p < planes; ++p) {
    for (int64_t py = 0; py < ho / 2; ++py) {
      for (int64_t px = 0; px < wo / 2; ++px, ++o) {
        const float* top = sums.data() + (p * ho + 2 * py) * wo + 2 * px;
        const float in[4] = {top[0], top[1], top[wo], top[wo + 1]};
        PoolWindowRule(in, 0.0f, &(*out)[o], &(*window)[o]);
      }
    }
  }
}

ConvKernelShape KernelShapeOf(const Tensor& x, const Conv2dSpec& spec) {
  return {x.dim(0),          x.dim(1),    x.dim(2),    x.dim(3),
          spec.out_channels, spec.kernel, spec.stride, spec.pad};
}

Tensor RefConvReluPool(const Tensor& x, const Tensor& w, const Tensor& b,
                       const Conv2dSpec& spec, std::vector<uint8_t>* window) {
  std::vector<float> pooled;
  RefConvReluPool(x.data(), w.data(), b.data(), KernelShapeOf(x, spec),
                  &pooled, window);
  Tensor out(Shape{x.dim(0), spec.out_channels, spec.OutDim(x.dim(2)) / 2,
                   spec.OutDim(x.dim(3)) / 2});
  std::copy(pooled.begin(), pooled.end(), out.data());
  return out;
}

Tensor RefConv2dForward(const Tensor& x, const Tensor& w, const Tensor& b,
                        const Conv2dSpec& spec) {
  Tensor out(Shape{x.dim(0), spec.out_channels, spec.OutDim(x.dim(2)),
                   spec.OutDim(x.dim(3))});
  ref::Conv2dForwardKernel(x.data(), w.data(), b.data(),
                           KernelShapeOf(x, spec), out.data());
  return out;
}

Tensor RoutedGradient(const Tensor& grad, const Tensor& y,
                      const std::vector<uint8_t>& window) {
  const int64_t wo = y.dim(3), wd = 2 * wo;
  Tensor routed(Shape{y.dim(0), y.dim(1), 2 * y.dim(2), wd});
  for (int64_t i = 0; i < y.size(); ++i) {
    const int64_t k = window[static_cast<size_t>(i)];
    routed.at(2 * (i / wo) * wd + (k >> 1) * wd + 2 * (i % wo) + (k & 1)) =
        y.at(i) > 0.0f ? 0.0f + grad.at(i) : 0.0f;
  }
  return routed;
}

void RefConv2dBackward(const Tensor& grad_out, const Tensor& x,
                       const Tensor& w, const Conv2dSpec& spec, Tensor* dx,
                       Tensor* dw, Tensor* db) {
  *dx = Tensor(x.shape());
  *dw = Tensor(w.shape());
  *db = Tensor(Shape{spec.out_channels});
  ref::Conv2dBackwardKernel(grad_out.data(), x.data(), w.data(),
                            KernelShapeOf(x, spec), dx->data(), dw->data(),
                            db->data());
}

}  // namespace rfed::testing
