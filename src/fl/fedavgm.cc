#include "fl/fedavgm.h"

#include "fl/checkpoint.h"
#include "util/check.h"

namespace rfed {

FedAvgM::FedAvgM(const FlConfig& config, double server_momentum,
                 const Dataset* train_data, std::vector<ClientView> clients,
                 const ModelFactory& model_factory)
    : FederatedAlgorithm("FedAvgM", config, train_data, std::move(clients),
                         model_factory),
      beta_(server_momentum),
      momentum_(global_state().shape()) {
  RFED_CHECK_GE(beta_, 0.0);
  RFED_CHECK_LT(beta_, 1.0);
}

void FedAvgM::Aggregate(int round, const std::vector<int>& selected,
                        const std::vector<Tensor>& new_states,
                        const std::vector<double>& start_losses) {
  if (!config().robust.mean()) {
    // Robust variant: combine the survivors' models robustly and feed
    // the resulting displacement into the same momentum update.
    Tensor combined = RobustCombine(selected, new_states, global_state());
    Tensor pseudo_grad = global_state();
    pseudo_grad.SubInPlace(combined);
    momentum_.MulInPlace(static_cast<float>(beta_));
    momentum_.AddInPlace(pseudo_grad);
    Tensor next = global_state();
    next.Axpy(-1.0f, momentum_);
    SetGlobalState(std::move(next));
    return;
  }
  double weight_sum = 0.0;
  for (int k : selected) weight_sum += client_weight(k);
  RFED_CHECK_GT(weight_sum, 0.0);

  // Pseudo-gradient: x - avg_k y_k.
  Tensor pseudo_grad = global_state();
  for (size_t i = 0; i < selected.size(); ++i) {
    const double w = client_weight(selected[i]) / weight_sum;
    pseudo_grad.Axpy(static_cast<float>(-w), new_states[i]);
  }
  momentum_.MulInPlace(static_cast<float>(beta_));
  momentum_.AddInPlace(pseudo_grad);
  Tensor next = global_state();
  next.Axpy(-1.0f, momentum_);
  SetGlobalState(std::move(next));
}

void FedAvgM::SaveExtraState(CheckpointWriter* writer) const {
  writer->WriteTensor(momentum_);
}

void FedAvgM::LoadExtraState(CheckpointReader* reader) {
  Tensor m = reader->ReadTensor();
  RFED_CHECK_EQ(m.size(), momentum_.size());
  momentum_ = std::move(m);
}

}  // namespace rfed
