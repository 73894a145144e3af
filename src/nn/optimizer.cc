#include "nn/optimizer.h"

#include "obs/trace.h"
#include "tensor/kernels.h"
#include "util/check.h"

namespace rfed {

void Optimizer::ZeroGrad() {
  for (Variable* p : params_) p->ZeroGrad();
}

SgdOptimizer::SgdOptimizer(std::vector<Variable*> params, double lr,
                           double momentum, double weight_decay)
    : Optimizer(std::move(params), lr),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  if (momentum_ != 0.0) {
    velocity_.reserve(params_.size());
    for (Variable* p : params_) velocity_.emplace_back(p->value().shape());
  }
}

void SgdOptimizer::Step() {
  obs::TraceSpan span("optimizer_step");
  SgdStep step;
  step.lr = static_cast<float>(lr_);
  step.weight_decay = static_cast<float>(weight_decay_);
  step.momentum = static_cast<float>(momentum_);
  for (size_t i = 0; i < params_.size(); ++i) {
    Variable* p = params_[i];
    if (!p->has_grad()) continue;
    Tensor& w = p->mutable_value();
    float* v = step.momentum == 0.0f ? nullptr : velocity_[i].data();
    SgdStepKernel(w.data(), p->grad().data(), v, w.size(), step);
  }
}

RmsPropOptimizer::RmsPropOptimizer(std::vector<Variable*> params, double lr,
                                   double alpha, double eps)
    : Optimizer(std::move(params), lr), alpha_(alpha), eps_(eps) {
  mean_square_.reserve(params_.size());
  for (Variable* p : params_) mean_square_.emplace_back(p->value().shape());
}

void RmsPropOptimizer::Step() {
  obs::TraceSpan span("optimizer_step");
  RmsPropStep step;
  step.lr = static_cast<float>(lr_);
  step.alpha = static_cast<float>(alpha_);
  step.eps = static_cast<float>(eps_);
  for (size_t i = 0; i < params_.size(); ++i) {
    Variable* p = params_[i];
    if (!p->has_grad()) continue;
    Tensor& w = p->mutable_value();
    RmsPropStepKernel(w.data(), p->grad().data(), mean_square_[i].data(),
                      w.size(), step);
  }
}

std::unique_ptr<Optimizer> MakeOptimizer(OptimizerKind kind,
                                         std::vector<Variable*> params,
                                         double lr) {
  switch (kind) {
    case OptimizerKind::kSgd:
      return std::make_unique<SgdOptimizer>(std::move(params), lr);
    case OptimizerKind::kRmsProp:
      return std::make_unique<RmsPropOptimizer>(std::move(params), lr);
  }
  RFED_CHECK(false) << "unknown optimizer kind";
  return nullptr;
}

}  // namespace rfed
