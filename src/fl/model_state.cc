#include "fl/model_state.h"

#include <algorithm>

#include "util/check.h"

namespace rfed {

int64_t ParameterCount(const std::vector<Variable*>& params) {
  int64_t n = 0;
  for (Variable* p : params) n += p->value().size();
  return n;
}

Tensor FlattenParameters(const std::vector<Variable*>& params) {
  Tensor flat(Shape{ParameterCount(params)});
  int64_t offset = 0;
  for (Variable* p : params) {
    const Tensor& v = p->value();
    std::copy(v.data(), v.data() + v.size(), flat.data() + offset);
    offset += v.size();
  }
  return flat;
}

void LoadParameters(const Tensor& flat, const std::vector<Variable*>& params) {
  RFED_CHECK_EQ(flat.size(), ParameterCount(params));
  int64_t offset = 0;
  for (Variable* p : params) {
    Tensor& v = p->mutable_value();
    std::copy(flat.data() + offset, flat.data() + offset + v.size(), v.data());
    offset += v.size();
  }
}

Tensor FlattenGradients(const std::vector<Variable*>& params) {
  Tensor flat(Shape{ParameterCount(params)});
  int64_t offset = 0;
  for (Variable* p : params) {
    if (p->has_grad()) {
      const Tensor& g = p->grad();
      std::copy(g.data(), g.data() + g.size(), flat.data() + offset);
    }
    offset += p->value().size();
  }
  return flat;
}

void AddFlatToGradients(const Tensor& flat, double scale,
                        const std::vector<Variable*>& params) {
  RFED_CHECK_EQ(flat.size(), ParameterCount(params));
  const float s = static_cast<float>(scale);
  int64_t offset = 0;
  for (Variable* p : params) {
    Tensor& g = p->grad();  // +0 where no contribution reached it
    for (int64_t i = 0; i < g.size(); ++i) {
      g.at(i) += s * flat.at(offset + i);
    }
    offset += g.size();
  }
}

void AddProximalToGradients(const Tensor& reference, double mu,
                            const std::vector<Variable*>& params) {
  RFED_CHECK_EQ(reference.size(), ParameterCount(params));
  const float m = static_cast<float>(mu);
  int64_t offset = 0;
  for (Variable* p : params) {
    Tensor& g = p->grad();
    const Tensor& w = p->value();
    for (int64_t i = 0; i < g.size(); ++i) {
      g.at(i) += m * (w.at(i) - reference.at(offset + i));
    }
    offset += g.size();
  }
}

int64_t StateBytes(const std::vector<Variable*>& params) {
  return ParameterCount(params) * static_cast<int64_t>(sizeof(float));
}

}  // namespace rfed
