#include "test_util.h"

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

}  // namespace rfed::testing
