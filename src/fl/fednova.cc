#include "fl/fednova.h"

#include <algorithm>

#include "util/check.h"

namespace rfed {

FedNova::FedNova(const FlConfig& config, int max_local_steps,
                 const Dataset* train_data, std::vector<ClientView> clients,
                 const ModelFactory& model_factory)
    : FederatedAlgorithm("FedNova", config, train_data, std::move(clients),
                         model_factory),
      max_local_steps_(max_local_steps) {
  RFED_CHECK_GE(max_local_steps_, 1);
}

int FedNova::LocalSteps(int client) const {
  // One local epoch: ceil(n_k / B), capped.
  const int64_t n =
      static_cast<int64_t>(client_view(client).train_indices.size());
  const int64_t steps = (n + config().batch_size - 1) / config().batch_size;
  return static_cast<int>(
      std::clamp<int64_t>(steps, 1, max_local_steps_));
}

void FedNova::Aggregate(int round, const std::vector<int>& selected,
                        const std::vector<Tensor>& new_states,
                        const std::vector<double>& start_losses) {
  double weight_sum = 0.0;
  for (int k : selected) weight_sum += client_weight(k);
  RFED_CHECK_GT(weight_sum, 0.0);

  if (!config().robust.mean()) {
    // Robust variant: combine the per-step updates d_k = (x - y_k)/tau_k
    // robustly under the survivors' p_k weights (reference zero for the
    // norm bound — d_k is already a delta), then apply the same
    // tau_eff-scaled server step.
    std::vector<Tensor> normalized;
    normalized.reserve(selected.size());
    double tau_eff = 0.0;
    for (size_t i = 0; i < selected.size(); ++i) {
      const int k = selected[i];
      const double pk = client_weight(k) / weight_sum;
      const double tau = static_cast<double>(LocalSteps(k));
      tau_eff += pk * tau;
      Tensor d = global_state();
      d.SubInPlace(new_states[i]);  // x - y_k
      d.MulInPlace(static_cast<float>(1.0 / tau));
      normalized.push_back(std::move(d));
    }
    Tensor combined =
        RobustCombine(selected, normalized, Tensor(global_state().shape()));
    Tensor next = global_state();
    next.Axpy(static_cast<float>(-tau_eff), combined);
    SetGlobalState(std::move(next));
    return;
  }

  // Normalized average of per-step updates and the effective step count.
  Tensor normalized(global_state().shape());
  double tau_eff = 0.0;
  for (size_t i = 0; i < selected.size(); ++i) {
    const int k = selected[i];
    const double pk = client_weight(k) / weight_sum;
    const double tau = static_cast<double>(LocalSteps(k));
    tau_eff += pk * tau;
    Tensor delta = global_state();
    delta.SubInPlace(new_states[i]);  // x - y_k
    normalized.Axpy(static_cast<float>(pk / tau), delta);
  }
  Tensor next = global_state();
  next.Axpy(static_cast<float>(-tau_eff), normalized);
  SetGlobalState(std::move(next));
}

}  // namespace rfed
