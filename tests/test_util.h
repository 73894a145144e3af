#ifndef RFED_TESTS_TEST_UTIL_H_
#define RFED_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "autograd/variable.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace rfed::testing {

/// Checks analytic gradients against central finite differences.
/// `build_loss` must construct a *fresh* scalar graph from the current
/// values of `leaves` on every call. Returns the max absolute deviation
/// across all leaf elements; the analytic gradient of leaf i is obtained
/// by one Backward() on the built loss.
double MaxGradCheckError(
    const std::function<Variable()>& build_loss,
    const std::vector<Variable*>& leaves, double epsilon = 1e-3);

/// Fills a tensor with a reproducible non-degenerate pattern
/// (sin ramp), handy for exact-kernel tests.
Tensor PatternTensor(Shape shape, float scale = 1.0f);

/// Every kernel table this build and machine can run: the portable one,
/// then AVX2 and AVX-512 where available. Forcing a table the machine
/// lacks aborts, so tests that pin each table enumerate this list.
std::vector<KernelIsa> AvailableKernelIsas();

/// The conv block's epilogue rule written out for one 2x2 window of
/// conv sums: r = std::max(0.0f, sum + bias), and a window position wins
/// only when strictly greater than the running max.
void PoolWindowRule(const float in[4], float bias, float* out,
                    uint8_t* window);

/// The kernel-level shape of the conv `spec` over the input x
/// [B, Cin, H, W].
ConvKernelShape KernelShapeOf(const Tensor& x, const Conv2dSpec& spec);

/// The fused conv block's oracle, from the serial reference alone:
/// ref::Conv2dForwardKernel's sums (bias added), then PoolWindowRule on
/// each 2x2 window of each plane (Ho, Wo even). *out gets the pooled
/// [B, Cout, Ho/2, Wo/2] and *window one byte per pooled output.
void RefConvReluPool(const float* x, const float* w, const float* bias,
                     const ConvKernelShape& s, std::vector<float>* out,
                     std::vector<uint8_t>* window);
/// The same oracle on tensors: x [B, Cin, H, W], w [Cout, Cin*K*K],
/// b [Cout] -> [B, Cout, Ho/2, Wo/2].
Tensor RefConvReluPool(const Tensor& x, const Tensor& w, const Tensor& b,
                       const Conv2dSpec& spec, std::vector<uint8_t>* window);

/// ref::Conv2dForwardKernel on tensors: x [B, Cin, H, W],
/// w [Cout, Cin*K*K], b [Cout] -> [B, Cout, Ho, Wo].
Tensor RefConv2dForward(const Tensor& x, const Tensor& w, const Tensor& b,
                        const Conv2dSpec& spec);
/// The conv block's gradient on the full-size conv grid, as the
/// reference backward sees it: from the pooled grad, the pooled output y
/// [B, Cout, Ho/2, Wo/2] and its window bytes, 0 + grad at each window's
/// winner where y > 0, +0 everywhere else; [B, Cout, Ho, Wo].
Tensor RoutedGradient(const Tensor& grad, const Tensor& y,
                      const std::vector<uint8_t>& window);
/// ref::Conv2dBackwardKernel on tensors: the conv's gradients from the
/// full-size output gradient grad_out [B, Cout, Ho, Wo], each into a
/// fresh zeroed tensor.
void RefConv2dBackward(const Tensor& grad_out, const Tensor& x,
                       const Tensor& w, const Conv2dSpec& spec, Tensor* dx,
                       Tensor* dw, Tensor* db);

}  // namespace rfed::testing

#endif  // RFED_TESTS_TEST_UTIL_H_
