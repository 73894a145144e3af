#include "core/rfedavg.h"

#include "core/mmd.h"
#include "fl/checkpoint.h"
#include "obs/trace.h"
#include "util/check.h"

namespace rfed {

RFedAvg::RFedAvg(const FlConfig& config, const RegularizerOptions& reg,
                 const Dataset* train_data, std::vector<ClientView> clients,
                 const ModelFactory& model_factory)
    : FederatedAlgorithm("rFedAvg", config, train_data, std::move(clients),
                         model_factory),
      reg_(reg),
      store_(num_clients(), reg.regularize_logits
                                ? raw_model()->num_classes()
                                : raw_model()->feature_dim()),
      noise_rng_(config.seed ^ 0x9e3779b97f4a7c15ULL) {
  RFED_CHECK_GE(reg_.lambda, 0.0);
  map_received_.assign(static_cast<size_t>(num_clients()), 1);
}

void RFedAvg::OnRoundStart(int round, const std::vector<int>& selected) {
  // Server broadcasts the full delayed map vector δ_{cE} to each sampled
  // client (Algorithm 1, line 3): N-1 foreign maps per client. A client
  // whose broadcast is lost has no targets to regularize against and
  // degrades to a plain FedAvg round.
  obs::TraceSpan trace_span("map_broadcast");
  map_received_.assign(static_cast<size_t>(num_clients()), 0);
  for (int k : selected) {
    map_received_[static_cast<size_t>(k)] =
        channel().Download(store_.BroadcastBytesPairwise(), channel_kind::kMap)
            ? 1
            : 0;
  }
  pending_updates_.clear();
}

Variable RFedAvg::ExtraLoss(int client, const ModelOutput& output,
                            const Batch& batch) {
  if (reg_.lambda == 0.0) return Variable();
  // On a worker replica the context blob carries the delivery flag and
  // peer maps the server-side store would have provided.
  const bool received = ctx_active_
                            ? ctx_received_
                            : map_received_[static_cast<size_t>(client)] != 0;
  if (!received) return Variable();
  obs::TraceSpan trace_span("mmd_penalty");
  const Variable& rep =
      reg_.regularize_logits ? output.logits : output.features;
  // r'_k: mean squared MMD against every other client's delayed map.
  std::vector<Tensor> targets =
      ctx_active_ ? ctx_targets_ : store_.AllExcept(client);
  Variable r = PairwiseMmdRegularizer(rep, targets);
  return ag::Scale(r, static_cast<float>(reg_.lambda));
}

void RFedAvg::EncodeTrainContext(int round, int client,
                                 CheckpointWriter* writer) const {
  const bool received = map_received_[static_cast<size_t>(client)] != 0;
  writer->WriteBool(received);
  if (!received) return;
  const std::vector<Tensor> targets = store_.AllExcept(client);
  writer->WriteU32(static_cast<uint32_t>(targets.size()));
  for (const Tensor& t : targets) writer->WriteTensor(t);
}

void RFedAvg::DecodeTrainContext(int round, int client,
                                 CheckpointReader* reader) {
  ctx_active_ = true;
  ctx_received_ = reader->ReadBool();
  ctx_targets_.clear();
  if (!ctx_received_) return;
  const uint32_t count = reader->ReadU32();
  // The count comes off the wire: bound it by the targets Encode can
  // write (every other client's map) before sizing anything by it.
  RFED_CHECK_LE(count, static_cast<uint32_t>(num_clients() - 1))
      << "rFedAvg context decoder: " << count << " map targets for "
      << num_clients() << " clients";
  ctx_targets_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ctx_targets_.push_back(reader->ReadTensor());
  }
}

void RFedAvg::OnClientTrained(int round, int client, const Tensor& new_state) {
  // Algorithm 1, line 10: δ^k_{(c+1)E} from the client's *local* trained
  // model (the source of the map inconsistency Theorem 2 quantifies).
  // A map upload lost on the channel never reaches the store; the server
  // keeps that client's previous (delayed) map.
  obs::TraceSpan trace_span("map_update");
  Tensor delta = ComputeClientDelta(client, new_state,
                                   reg_.regularize_logits);
  ApplyDpNoise(reg_.dp, &delta, &noise_rng_);
  // The upload rides the fault channel; on arrival the server screens
  // the map (a finite-but-extreme poisoned model can still overflow the
  // forward pass into Inf features) before it can enter the store.
  if (channel().Upload(store_.MapBytes(), channel_kind::kMap) &&
      ScreenMap(client, delta)) {
    pending_updates_.emplace_back(client, std::move(delta));
  }
}

void RFedAvg::OnRoundEnd(int round, const std::vector<int>& selected) {
  // Commit after all clients trained so every client of this round saw
  // the same delayed snapshot (server updates δ at line 13).
  for (auto& [client, delta] : pending_updates_) {
    store_.Update(client, std::move(delta));
  }
  pending_updates_.clear();
}

double RFedAvg::MeanPairwiseMmd() const {
  const auto& deltas = store_.All();
  double total = 0.0;
  int64_t pairs = 0;
  for (size_t i = 0; i < deltas.size(); ++i) {
    for (size_t j = i + 1; j < deltas.size(); ++j) {
      total += MmdSquared(deltas[i], deltas[j]);
      ++pairs;
    }
  }
  return pairs == 0 ? 0.0 : total / static_cast<double>(pairs);
}

void RFedAvg::SaveExtraState(CheckpointWriter* writer) const {
  writer->WriteU32(static_cast<uint32_t>(store_.num_clients()));
  for (const Tensor& delta : store_.All()) writer->WriteTensor(delta);
  writer->WriteRng(noise_rng_.SaveState());
}

void RFedAvg::LoadExtraState(CheckpointReader* reader) {
  const uint32_t count = reader->ReadU32();
  RFED_CHECK_EQ(count, static_cast<uint32_t>(store_.num_clients()))
      << "checkpoint is for a different client count";
  for (int k = 0; k < store_.num_clients(); ++k) {
    store_.Update(k, reader->ReadTensor());
  }
  noise_rng_.LoadState(reader->ReadRng());
}

}  // namespace rfed
