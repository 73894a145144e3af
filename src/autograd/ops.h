#ifndef RFED_AUTOGRAD_OPS_H_
#define RFED_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/variable.h"
#include "tensor/tensor_ops.h"

namespace rfed::ag {

// Differentiable ops. Each builds a GraphNode whose backward_fn applies
// the exact vector-Jacobian product of the forward kernel and whose
// forward_fn re-executes the forward in place (tape replay and
// checkpoint rematerialization; see autograd/tape.h). All forward math
// lives in tensor/tensor_ops.h. Gradients are validated against finite
// differences in tests/autograd_test.cc; replay bit-identity in
// tests/tape_test.cc.

// ---- Inputs ----
/// Batch-input leaf (requires_grad = false). When a TapeSession is
/// recording, the node is tagged so replayed steps rebind it to the
/// fresh batch's images — reshaped to the recorded shape if the caller
/// flattened them. Use for Batch::images; plain `Variable(t)` leaves
/// stay untagged and constant across replays.
Variable Input(const Tensor& value);

// ---- Arithmetic ----
/// Elementwise a + b. Backward: passes the upstream grad to both inputs.
Variable Add(const Variable& a, const Variable& b);
/// Elementwise a - b. Backward: +grad to a, -grad to b.
Variable Sub(const Variable& a, const Variable& b);
/// Elementwise (Hadamard) product. Backward: grad ⊙ other-input.
Variable Mul(const Variable& a, const Variable& b);
/// a * s for a compile-time-constant scalar s. Backward: grad * s.
Variable Scale(const Variable& a, float s);

// ---- Activations ----
/// max(x, 0). Backward: grad where x > 0 (or NaN), else 0.
Variable Relu(const Variable& x);
/// tanh(x). Backward uses the saved output: grad * (1 - y²).
Variable Tanh(const Variable& x);
/// Logistic sigmoid. Backward uses the saved output: grad * y * (1 - y).
Variable Sigmoid(const Variable& x);

// ---- Linear algebra ----
/// a [m, k] · b [k, n] -> [m, n], via the dispatched GEMM kernels.
/// Backward: da = g · bᵀ, db = aᵀ · g.
Variable MatMul(const Variable& a, const Variable& b);
/// x [rows, cols] + bias [cols] broadcast over rows. Backward: grad to
/// x unchanged, column sums of grad to bias.
Variable AddRowBroadcast(const Variable& x, const Variable& bias);
/// Fused relu(x · w + bias) — one node instead of the
/// MatMul/AddRowBroadcast/Relu chain, saving two intermediate tensors
/// per call. Bit-identical to the unfused chain: the epilogue applies
/// `+bias` then `max(·, 0)` per element in the same order, and the
/// backward issues the identical GEMM/row-sum kernels on an identical
/// masked gradient (y > 0 exactly iff the pre-activation > 0). See
/// docs/AUTOGRAD.md for the determinism argument.
Variable LinearBiasRelu(const Variable& x, const Variable& w,
                        const Variable& bias);

// ---- Shape ----
/// View-copy of x with a new shape (element counts must match).
/// Backward reshapes the grad back.
Variable Reshape(const Variable& x, Shape new_shape);
/// Column slice [begin, end) of a [rows, cols] tensor. Backward
/// scatters the grad back into the sliced columns.
Variable SliceCols(const Variable& x, int64_t begin, int64_t end);
/// Row-wise concat of equal-width matrices. Backward splits the grad
/// at a's row count.
Variable ConcatRows(const Variable& a, const Variable& b);

// ---- Reductions ----
/// Scalar sum of all elements. Backward broadcasts the upstream scalar.
Variable Sum(const Variable& x);
/// Scalar mean of all elements. Backward broadcasts grad / size.
Variable Mean(const Variable& x);
/// Mean over axis 0 of [rows, cols] -> [cols]; the feature-mean δ of a
/// mini-batch, the quantity the distribution regularizer acts on.
Variable MeanRows(const Variable& x);
/// Scalar squared L2 distance ||x - target||² against a constant
/// target. The difference is cached forward and reused by backward
/// (2 g (x - target)); replay recomputes it from fresh data.
Variable SquaredDistanceToConst(const Variable& x, const Tensor& target);
/// Scalar squared L2 norm ||x||². Backward: 2 g x.
Variable SquaredNorm(const Variable& x);

// ---- Layers ----
/// Embedding lookup rows of `table` ([V, D]) at `ids`, tagged with the
/// token-matrix column the ids came from: replayed steps recompute ids
/// from column `timestep` of the fresh batch's tokens.
Variable GatherRows(const Variable& table, const std::vector<int>& ids,
                    int timestep);
/// Fused maxpool2x2(relu(conv2d(x, w) + b)), the CNN's conv block as
/// one node; w is [Cout, Cin*K*K], b is [Cout]. Bias, clamp and pool
/// run in the conv kernel's epilogue, so the full-size conv output is
/// neither allocated nor kept: the node holds the pooled value and one
/// window byte per output (replay refreshes both). The backward routes
/// each grad to its window's winner where the pooled value is > 0 and
/// runs the conv backward on that. The value is bit-identical to the
/// reference conv sums followed by ReLU and the scalar 2x2 pool, and
/// every gradient to ref::Conv2dBackwardKernel on the routed gradient;
/// a NaN pre-activation clamps to 0 and blocks its gradient (see
/// docs/AUTOGRAD.md).
Variable Conv2dBiasReluPool(const Variable& x, const Variable& w,
                            const Variable& b, const Conv2dSpec& spec);
/// Mean softmax cross-entropy over the batch (scalar output). The
/// labels and the softmax gradient are cached forward; replayed steps
/// refresh both from the fresh batch (the node is tagged kLabels).
Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int>& labels);

}  // namespace rfed::ag

#endif  // RFED_AUTOGRAD_OPS_H_
