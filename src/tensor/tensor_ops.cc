#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "util/check.h"

namespace rfed {
namespace {

void CheckSameShape(const Tensor& a, const Tensor& b) {
  RFED_CHECK(a.shape() == b.shape())
      << a.shape().ToString() << " vs " << b.shape().ToString();
}

ConvKernelShape ToKernelShape(const Conv2dSpec& spec, int64_t batch,
                              int64_t h, int64_t w) {
  ConvKernelShape s;
  s.batch = batch;
  s.in_channels = spec.in_channels;
  s.height = h;
  s.width = w;
  s.out_channels = spec.out_channels;
  s.kernel = spec.kernel;
  s.stride = spec.stride;
  s.pad = spec.pad;
  return s;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out = a;
  out.AddInPlace(b);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out = a;
  out.SubInPlace(b);
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out = a;
  for (int64_t i = 0; i < out.size(); ++i) out.at(i) *= b.at(i);
  return out;
}

Tensor Scale(const Tensor& a, float s) {
  Tensor out = a;
  out.MulInPlace(s);
  return out;
}

Tensor Relu(const Tensor& x) {
  Tensor out(x.shape());
  ReluKernel(x.data(), x.size(), out.data());
  return out;
}

Tensor ReluBackward(const Tensor& grad, const Tensor& x) {
  CheckSameShape(grad, x);
  Tensor out(grad.shape());
  ReluMaskKernel(grad.data(), x.data(), grad.size(), out.data());
  return out;
}

Tensor Tanh(const Tensor& x) {
  Tensor out = x;
  for (int64_t i = 0; i < out.size(); ++i) out.at(i) = std::tanh(out.at(i));
  return out;
}

Tensor TanhBackwardFromOutput(const Tensor& grad, const Tensor& y) {
  CheckSameShape(grad, y);
  Tensor out = grad;
  for (int64_t i = 0; i < out.size(); ++i) {
    out.at(i) *= 1.0f - y.at(i) * y.at(i);
  }
  return out;
}

Tensor Sigmoid(const Tensor& x) {
  Tensor out = x;
  for (int64_t i = 0; i < out.size(); ++i) {
    out.at(i) = 1.0f / (1.0f + std::exp(-out.at(i)));
  }
  return out;
}

Tensor SigmoidBackwardFromOutput(const Tensor& grad, const Tensor& y) {
  CheckSameShape(grad, y);
  Tensor out = grad;
  for (int64_t i = 0; i < out.size(); ++i) {
    out.at(i) *= y.at(i) * (1.0f - y.at(i));
  }
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  RFED_CHECK_EQ(a.rank(), 2);
  RFED_CHECK_EQ(b.rank(), 2);
  RFED_CHECK_EQ(a.dim(1), b.dim(0));
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c(Shape{m, n});
  GemmAdd(a.data(), b.data(), m, k, n, c.data());
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  RFED_CHECK_EQ(a.rank(), 2);
  RFED_CHECK_EQ(b.rank(), 2);
  RFED_CHECK_EQ(a.dim(0), b.dim(0));
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c(Shape{k, n});
  // c[p, j] = sum_i a[i, p] * b[i, j]
  GemmTransAAdd(a.data(), b.data(), m, k, n, c.data());
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  RFED_CHECK_EQ(a.rank(), 2);
  RFED_CHECK_EQ(b.rank(), 2);
  RFED_CHECK_EQ(a.dim(1), b.dim(1));
  const int64_t m = a.dim(0), n = a.dim(1), k = b.dim(0);
  Tensor c(Shape{m, k});
  // c[i, p] = sum_j a[i, j] * b[p, j]  (dot of contiguous rows)
  GemmTransBAssign(a.data(), b.data(), m, n, k, c.data());
  return c;
}

Tensor Transpose2d(const Tensor& a) {
  RFED_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.dim(0), n = a.dim(1);
  Tensor out(Shape{n, m});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) out.at2(j, i) = a.at2(i, j);
  }
  return out;
}

Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias) {
  RFED_CHECK_EQ(x.rank(), 2);
  RFED_CHECK_EQ(bias.rank(), 1);
  RFED_CHECK_EQ(x.dim(1), bias.dim(0));
  Tensor out = x;
  const int64_t rows = x.dim(0), cols = x.dim(1);
  for (int64_t r = 0; r < rows; ++r) {
    float* row = out.data() + r * cols;
    for (int64_t c = 0; c < cols; ++c) row[c] += bias.at(c);
  }
  return out;
}

Tensor SumRows(const Tensor& x) {
  RFED_CHECK_EQ(x.rank(), 2);
  const int64_t rows = x.dim(0), cols = x.dim(1);
  Tensor out(Shape{cols});
  SumRowsKernel(x.data(), rows, cols, out.data());
  return out;
}

Tensor LinearBiasReluForward(const Tensor& x, const Tensor& w,
                             const Tensor& bias) {
  RFED_CHECK_EQ(x.rank(), 2);
  RFED_CHECK_EQ(w.rank(), 2);
  RFED_CHECK_EQ(bias.rank(), 1);
  RFED_CHECK_EQ(x.dim(1), w.dim(0));
  RFED_CHECK_EQ(w.dim(1), bias.dim(0));
  const int64_t m = x.dim(0), k = x.dim(1), n = w.dim(1);
  Tensor y(Shape{m, n});
  GemmAdd(x.data(), w.data(), m, k, n, y.data());
  // Epilogue in the unfused chain's element order: add the bias, then
  // clamp — float-identical to AddRowBroadcast followed by Relu.
  for (int64_t r = 0; r < m; ++r) {
    float* row = y.data() + r * n;
    for (int64_t c = 0; c < n; ++c) row[c] += bias.at(c);
  }
  ReluKernel(y.data(), y.size(), y.data());
  return y;
}

void LinearBiasReluBackward(const Tensor& grad, const Tensor& y,
                            const Tensor& x, const Tensor& w, Tensor* dx,
                            Tensor* dw, Tensor* db) {
  // y = max(0, pre) makes `y <= 0` the exact set of clamped elements.
  const Tensor g_pre = ReluBackward(grad, y);
  if (dx != nullptr) *dx = MatMulTransB(g_pre, w);
  if (dw != nullptr) *dw = MatMulTransA(x, g_pre);
  if (db != nullptr) *db = SumRows(g_pre);
}

bool AllFinite(const Tensor& t) { return AllFiniteKernel(t.data(), t.size()); }

Tensor MeanRows(const Tensor& x) {
  RFED_CHECK_GT(x.dim(0), 0);
  Tensor out = SumRows(x);
  out.MulInPlace(1.0f / static_cast<float>(x.dim(0)));
  return out;
}

Tensor SoftmaxRows(const Tensor& logits) {
  RFED_CHECK_EQ(logits.rank(), 2);
  const int64_t rows = logits.dim(0), cols = logits.dim(1);
  Tensor out = logits;
  for (int64_t r = 0; r < rows; ++r) {
    float* row = out.data() + r * cols;
    float max_v = row[0];
    for (int64_t c = 1; c < cols; ++c) max_v = std::max(max_v, row[c]);
    double sum = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - max_v);
      sum += row[c];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int64_t c = 0; c < cols; ++c) row[c] *= inv;
  }
  return out;
}

float SoftmaxCrossEntropy(const Tensor& logits, const std::vector<int>& labels,
                          Tensor* dlogits) {
  RFED_CHECK_EQ(logits.rank(), 2);
  const int64_t rows = logits.dim(0), cols = logits.dim(1);
  RFED_CHECK_EQ(static_cast<int64_t>(labels.size()), rows);
  Tensor probs = SoftmaxRows(logits);
  double loss = 0.0;
  for (int64_t r = 0; r < rows; ++r) {
    const int label = labels[static_cast<size_t>(r)];
    RFED_CHECK_GE(label, 0);
    RFED_CHECK_LT(label, cols);
    loss -= std::log(std::max(probs.at2(r, label), 1e-12f));
  }
  loss /= static_cast<double>(rows);
  if (dlogits != nullptr) {
    *dlogits = probs;
    const float inv_rows = 1.0f / static_cast<float>(rows);
    for (int64_t r = 0; r < rows; ++r) {
      dlogits->at2(r, labels[static_cast<size_t>(r)]) -= 1.0f;
      for (int64_t c = 0; c < cols; ++c) dlogits->at2(r, c) *= inv_rows;
    }
  }
  return static_cast<float>(loss);
}

namespace {

/// Checks the operands and returns the shape of the conv output.
Shape ConvOutputShape(const Tensor& x, const Tensor& w, const Tensor& b,
                      const Conv2dSpec& spec) {
  RFED_CHECK_EQ(x.rank(), 4);
  RFED_CHECK_EQ(x.dim(1), spec.in_channels);
  const int64_t patch = spec.in_channels * spec.kernel * spec.kernel;
  RFED_CHECK(w.shape() == Shape({spec.out_channels, patch}))
      << w.shape().ToString();
  RFED_CHECK_EQ(b.dim(0), spec.out_channels);
  const int64_t ho = spec.OutDim(x.dim(2)), wo = spec.OutDim(x.dim(3));
  RFED_CHECK_GT(ho, 0);
  RFED_CHECK_GT(wo, 0);
  return Shape{x.dim(0), spec.out_channels, ho, wo};
}

}  // namespace

Tensor Conv2dBiasReluPoolForward(const Tensor& x, const Tensor& w,
                                 const Tensor& b, const Conv2dSpec& spec,
                                 std::vector<uint8_t>* window) {
  const Shape conv = ConvOutputShape(x, w, b, spec);
  Tensor out(Shape{conv.dim(0), conv.dim(1), conv.dim(2) / 2, conv.dim(3) / 2});
  window->resize(static_cast<size_t>(out.size()));
  Conv2dBiasReluPoolForwardKernel(
      x.data(), w.data(), b.data(),
      ToKernelShape(spec, x.dim(0), x.dim(2), x.dim(3)), out.data(),
      window->data());
  return out;
}

void Conv2dBiasReluPoolBackward(const Tensor& grad, const Tensor& y,
                                const std::vector<uint8_t>& window,
                                const Tensor& x, const Tensor& w,
                                const Conv2dSpec& spec, Tensor* dx,
                                Tensor* dw, Tensor* db) {
  RFED_CHECK(grad.shape() == y.shape());
  RFED_CHECK_EQ(static_cast<int64_t>(window.size()), y.size());
  const int64_t batch = x.dim(0), h = x.dim(2), wd = x.dim(3);
  RFED_CHECK(y.shape() == Shape({batch, spec.out_channels, spec.OutDim(h) / 2,
                                 spec.OutDim(wd) / 2}));
  if (dx != nullptr) *dx = Tensor(x.shape());
  if (dw != nullptr) *dw = Tensor(w.shape());
  if (db != nullptr) *db = Tensor(Shape{spec.out_channels});
  Conv2dBiasReluPoolBackwardKernel(
      grad.data(), y.data(), window.data(), x.data(), w.data(),
      ToKernelShape(spec, batch, h, wd), dx != nullptr ? dx->data() : nullptr,
      dw != nullptr ? dw->data() : nullptr,
      db != nullptr ? db->data() : nullptr);
}

Tensor GatherRows(const Tensor& table, const std::vector<int>& ids) {
  RFED_CHECK_EQ(table.rank(), 2);
  const int64_t cols = table.dim(1);
  Tensor out(Shape{static_cast<int64_t>(ids.size()), cols});
  for (size_t i = 0; i < ids.size(); ++i) {
    RFED_CHECK_GE(ids[i], 0);
    RFED_CHECK_LT(ids[i], table.dim(0));
    const float* src = table.data() + static_cast<int64_t>(ids[i]) * cols;
    std::copy(src, src + cols, out.data() + static_cast<int64_t>(i) * cols);
  }
  return out;
}

void ScatterAddRows(const Tensor& grad, const std::vector<int>& ids,
                    Tensor* table_grad) {
  RFED_CHECK_EQ(grad.rank(), 2);
  RFED_CHECK_EQ(table_grad->rank(), 2);
  RFED_CHECK_EQ(grad.dim(0), static_cast<int64_t>(ids.size()));
  RFED_CHECK_EQ(grad.dim(1), table_grad->dim(1));
  const int64_t cols = grad.dim(1);
  for (size_t i = 0; i < ids.size(); ++i) {
    const float* src = grad.data() + static_cast<int64_t>(i) * cols;
    float* dst = table_grad->data() + static_cast<int64_t>(ids[i]) * cols;
    for (int64_t c = 0; c < cols; ++c) dst[c] += src[c];
  }
}

Tensor SliceRows(const Tensor& x, int64_t begin, int64_t end) {
  RFED_CHECK_EQ(x.rank(), 2);
  RFED_CHECK_GE(begin, 0);
  RFED_CHECK_LE(end, x.dim(0));
  RFED_CHECK_LE(begin, end);
  const int64_t cols = x.dim(1);
  Tensor out(Shape{end - begin, cols});
  std::copy(x.data() + begin * cols, x.data() + end * cols, out.data());
  return out;
}

Tensor ConcatRows(const Tensor& a, const Tensor& b) {
  RFED_CHECK_EQ(a.rank(), 2);
  RFED_CHECK_EQ(b.rank(), 2);
  RFED_CHECK_EQ(a.dim(1), b.dim(1));
  Tensor out(Shape{a.dim(0) + b.dim(0), a.dim(1)});
  std::copy(a.data(), a.data() + a.size(), out.data());
  std::copy(b.data(), b.data() + b.size(), out.data() + a.size());
  return out;
}

}  // namespace rfed
