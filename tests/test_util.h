#ifndef RFED_TESTS_TEST_UTIL_H_
#define RFED_TESTS_TEST_UTIL_H_

#include <functional>
#include <vector>

#include "autograd/variable.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

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

}  // namespace rfed::testing

#endif  // RFED_TESTS_TEST_UTIL_H_
