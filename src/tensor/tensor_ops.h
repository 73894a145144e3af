#ifndef RFED_TENSOR_TENSOR_OPS_H_
#define RFED_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace rfed {

// Raw numeric kernels over Tensors. These are pure functions (or write to
// explicit outputs) with no knowledge of autograd; the autograd layer
// composes them into differentiable ops. The hot paths (the three MatMul
// variants and the conv block) delegate to the blocked kernel layer in
// tensor/kernels.h — bit-identical to the naive loops for every block
// size and thread count (see docs/KERNELS.md).

// ---- Elementwise ----
/// c = a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);
/// c = a - b (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);
/// Hadamard product c = a ⊙ b (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);
/// c = s * a.
Tensor Scale(const Tensor& a, float s);

/// std::max(0.0f, x) elementwise (NaN and -0 give +0); branch-free
/// (ReluKernel).
Tensor Relu(const Tensor& x);
/// dL/dx given upstream grad and forward input: grad where x > 0 or x
/// is NaN, +0 where x <= 0 (ReluMaskKernel).
Tensor ReluBackward(const Tensor& grad, const Tensor& x);
/// tanh(x) elementwise.
Tensor Tanh(const Tensor& x);
/// dL/dx given upstream grad and forward *output* y = tanh(x).
Tensor TanhBackwardFromOutput(const Tensor& grad, const Tensor& y);
/// 1/(1+exp(-x)) elementwise.
Tensor Sigmoid(const Tensor& x);
/// dL/dx given upstream grad and forward *output* y = sigmoid(x).
Tensor SigmoidBackwardFromOutput(const Tensor& grad, const Tensor& y);

// ---- Linear algebra ----
/// C[m,n] = A[m,k] * B[k,n] (blocked GemmAdd underneath).
Tensor MatMul(const Tensor& a, const Tensor& b);
/// C[k,n] = A[m,k]^T * B[m,n] (weight-gradient shape of y = xW).
Tensor MatMulTransA(const Tensor& a, const Tensor& b);
/// C[m,k] = A[m,n] * B[k,n]^T (input-gradient shape of y = xW).
Tensor MatMulTransB(const Tensor& a, const Tensor& b);
/// Out-of-place transpose of a [r, c] tensor -> [c, r].
Tensor Transpose2d(const Tensor& a);

/// y[r, c] = x[r, c] + bias[c]  for x of shape [rows, cols].
Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias);
/// Column-sum of a [rows, cols] tensor -> [cols] (bias gradient).
Tensor SumRows(const Tensor& x);
/// Fused y = relu(x · w + bias) for x [m, k], w [k, n], bias [n]: one
/// GEMM plus an in-place bias+relu epilogue, saving the two intermediate
/// tensors of the MatMul/AddRowBroadcast/Relu chain. Bit-identical to
/// that chain: the epilogue performs the same `+bias` then `max(·, 0)`
/// per element, and GemmAdd is the same kernel MatMul dispatches to.
Tensor LinearBiasReluForward(const Tensor& x, const Tensor& w,
                             const Tensor& bias);
/// Backward of the fused op. `y` is the forward *output* (y <= 0 marks
/// exactly the elements the relu clamped, since y = max(0, pre)). The
/// masked gradient g_pre = grad ⊙ 1[y > 0] feeds the same kernels the
/// unfused chain uses: *dx = g_pre · wᵀ, *dw = xᵀ · g_pre,
/// *db = SumRows(g_pre). Null output pointers skip that gradient.
void LinearBiasReluBackward(const Tensor& grad, const Tensor& y,
                            const Tensor& x, const Tensor& w, Tensor* dx,
                            Tensor* dw, Tensor* db);
/// True iff every element of `t` is finite (no NaN/Inf): AllFiniteKernel.
bool AllFinite(const Tensor& t);
/// Mean over axis 0 of a [rows, cols] tensor -> [cols] (feature mean δ).
Tensor MeanRows(const Tensor& x);

// ---- Softmax / losses ----
/// Row-wise softmax of [rows, cols].
Tensor SoftmaxRows(const Tensor& logits);
/// Mean negative log-likelihood of `labels` under row-softmax(logits);
/// also returns d(loss)/d(logits) in *dlogits if non-null.
float SoftmaxCrossEntropy(const Tensor& logits, const std::vector<int>& labels,
                          Tensor* dlogits);

// ---- Convolution (NCHW) ----
/// Static shape parameters of a square-kernel 2-d convolution; OutDim
/// maps an input side length to the output side under stride/pad.
struct Conv2dSpec {
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  int64_t kernel = 0;   // square kernel
  int64_t stride = 1;
  int64_t pad = 0;
  int64_t OutDim(int64_t in) const { return (in + 2 * pad - kernel) / stride + 1; }
};

/// maxpool2x2(relu(conv2d(x, w) + b)) for x [B, Cin, H, W],
/// w [Cout, Cin*K*K], b [Cout] and even conv outputs Ho, Wo: bias, clamp
/// and pool run in the conv kernel's epilogue
/// (Conv2dBiasReluPoolForwardKernel), so the full-size conv output is
/// never allocated. Returns the pooled [B, Cout, Ho/2, Wo/2] and one
/// window byte per output (0..3, row-major: the window's first strict
/// maximum).
Tensor Conv2dBiasReluPoolForward(const Tensor& x, const Tensor& w,
                                 const Tensor& b, const Conv2dSpec& spec,
                                 std::vector<uint8_t>* window);

/// Gradients of Conv2dBiasReluPoolForward from the upstream grad of its
/// pooled output y and the window it recorded
/// (Conv2dBiasReluPoolBackwardKernel). The conv output's gradient is
/// nonzero only at a window's winner where y > 0, and the kernel adds
/// dw, dx and db terms for those winners only, straight from
/// (grad, y, window); off the padded grid, or with a non-finite operand,
/// it routes the gradient to the full-size grid and runs
/// ref::Conv2dBackwardKernel on it. Bit-identical to
/// ref::Conv2dBackwardKernel on that routed gradient either way. Any
/// output pointer may be null to skip; non-null outputs are allocated
/// (zeroed) here.
void Conv2dBiasReluPoolBackward(const Tensor& grad, const Tensor& y,
                                const std::vector<uint8_t>& window,
                                const Tensor& x, const Tensor& w,
                                const Conv2dSpec& spec, Tensor* dx,
                                Tensor* dw, Tensor* db);

// ---- Indexing ----
/// rows: out[i, :] = table[ids[i], :], table [V, D] -> [n, D].
Tensor GatherRows(const Tensor& table, const std::vector<int>& ids);
/// Scatter-add of grad rows back into a [V, D] gradient table.
void ScatterAddRows(const Tensor& grad, const std::vector<int>& ids,
                    Tensor* table_grad);

/// Extracts rows [begin, end) of a [rows, cols] tensor.
Tensor SliceRows(const Tensor& x, int64_t begin, int64_t end);
/// Concatenates [r1, c] and [r2, c] along axis 0.
Tensor ConcatRows(const Tensor& a, const Tensor& b);

}  // namespace rfed

#endif  // RFED_TENSOR_TENSOR_OPS_H_
