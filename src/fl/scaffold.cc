#include "fl/scaffold.h"

#include "fl/checkpoint.h"
#include "fl/model_state.h"
#include "util/check.h"

namespace rfed {

Scaffold::Scaffold(const FlConfig& config, const Dataset* train_data,
                   std::vector<ClientView> clients,
                   const ModelFactory& model_factory)
    : FederatedAlgorithm("Scaffold", config, train_data, std::move(clients),
                         model_factory) {
  global_control_ = Tensor(global_state().shape());
  client_controls_.assign(static_cast<size_t>(num_clients()),
                          Tensor(global_state().shape()));
}

void Scaffold::OnRoundStart(int round, const std::vector<int>& selected) {
  round_start_state_ = global_state();
  pending_control_ = Tensor(global_control_.shape());
  // The server ships c alongside the model to every sampled client. A
  // lost copy leaves that client correcting with its (slowly moving)
  // stale view of c — the standard straggler approximation — so delivery
  // is charged but not otherwise acted on.
  for (size_t i = 0; i < selected.size(); ++i) {
    channel().Download(model_bytes(), channel_kind::kControl);
  }
}

void Scaffold::PostBackward(int client,
                            const std::vector<Variable*>& params) {
  // g <- g + c - c_k. Reads the controls only; `params` belongs to the
  // model instance training this client (thread-pool safe).
  AddFlatToGradients(global_control_, 1.0, params);
  AddFlatToGradients(client_controls_[static_cast<size_t>(client)], -1.0,
                     params);
}

void Scaffold::OnClientTrained(int round, int client,
                               const Tensor& new_state) {
  // Option II refresh: c_k+ = c_k - c + (x - y_k) / (E * lr).
  const double scale =
      1.0 / (static_cast<double>(config().local_steps) * config().lr);
  Tensor& ck = client_controls_[static_cast<size_t>(client)];
  Tensor ck_new = ck;
  ck_new.Axpy(-1.0f, global_control_);
  Tensor drift = round_start_state_;
  drift.SubInPlace(new_state);  // x - y_k
  ck_new.Axpy(static_cast<float>(scale), drift);

  // Client uploads its refreshed control variate; the client-side c_k
  // refresh happens regardless, but the server-side c update — the
  // cohort mean of (c_k+ - c_k) weighted by |S|/N, i.e. 1/N per trained
  // client — only applies when the upload actually arrives.
  const bool delivered =
      channel().Upload(model_bytes(), channel_kind::kControl);
  if (delivered) {
    Tensor delta_c = ck_new;
    delta_c.SubInPlace(ck);
    pending_control_.Axpy(1.0f / static_cast<float>(num_clients()), delta_c);
  }
  ck = std::move(ck_new);
}

void Scaffold::OnRoundEnd(int round, const std::vector<int>& selected) {
  // Commit c once per round, after every client trained against the same
  // round-start value.
  global_control_.AddInPlace(pending_control_);
}

void Scaffold::EncodeTrainContext(int round, int client,
                                  CheckpointWriter* writer) const {
  writer->WriteTensor(global_control_);
  writer->WriteTensor(client_controls_[static_cast<size_t>(client)]);
}

void Scaffold::DecodeTrainContext(int round, int client,
                                  CheckpointReader* reader) {
  Tensor c = reader->ReadTensor();
  RFED_CHECK_EQ(c.size(), global_control_.size());
  global_control_ = std::move(c);
  Tensor ck = reader->ReadTensor();
  RFED_CHECK_EQ(ck.size(), global_control_.size());
  client_controls_[static_cast<size_t>(client)] = std::move(ck);
}

void Scaffold::SaveExtraState(CheckpointWriter* writer) const {
  writer->WriteTensor(global_control_);
  writer->WriteU32(static_cast<uint32_t>(client_controls_.size()));
  for (const Tensor& ck : client_controls_) writer->WriteTensor(ck);
}

void Scaffold::LoadExtraState(CheckpointReader* reader) {
  Tensor c = reader->ReadTensor();
  RFED_CHECK_EQ(c.size(), global_control_.size());
  global_control_ = std::move(c);
  const uint32_t count = reader->ReadU32();
  RFED_CHECK_EQ(count, client_controls_.size())
      << "checkpoint is for a different client count";
  for (Tensor& ck : client_controls_) {
    Tensor saved = reader->ReadTensor();
    RFED_CHECK_EQ(saved.size(), ck.size());
    ck = std::move(saved);
  }
}

}  // namespace rfed
