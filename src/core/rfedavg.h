#ifndef RFED_CORE_RFEDAVG_H_
#define RFED_CORE_RFEDAVG_H_

#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/delta_map.h"
#include "core/dp_noise.h"
#include "fl/algorithm.h"

namespace rfed {

/// Options shared by rFedAvg and rFedAvg+.
struct RegularizerOptions {
  /// Weight λ of the distribution regularizer (paper Eq. 3); also acts as
  /// the normalization coefficient of r_k.
  double lambda = 1e-4;
  /// Optional differential-privacy perturbation of the communicated maps
  /// (Fig. 12); sigma == 0 disables it.
  DpNoiseConfig dp;
  /// Ablation: compute the regularizer against the logits layer instead
  /// of the feature layer.
  bool regularize_logits = false;
};

/// rFedAvg — Algorithm 1 of the paper. FedAvg plus the distribution
/// regularizer r'_k computed against *delayed per-client* maps: at every
/// round the server broadcasts the whole map store δ = (δ^1..δ^N) to each
/// sampled client (O(d N^2) traffic); during local steps client k
/// penalizes (λ/(N-1)) Σ_{j≠k} ||mean φ(batch) - δ^j||²; after local
/// training it recomputes δ^k with its *local* model (the inconsistency
/// Theorem 2 pays for with the larger constant C₃) and uploads it.
class RFedAvg : public FederatedAlgorithm {
 public:
  RFedAvg(const FlConfig& config, const RegularizerOptions& reg,
          const Dataset* train_data, std::vector<ClientView> clients,
          const ModelFactory& model_factory);

  const DeltaMapStore& delta_store() const { return store_; }
  const RegularizerOptions& regularizer_options() const { return reg_; }

  /// Mean pairwise squared MMD across the stored maps — a scalar telling
  /// how far apart client feature distributions currently are.
  double MeanPairwiseMmd() const;

 protected:
  void OnRoundStart(int round, const std::vector<int>& selected) override;
  Variable ExtraLoss(int client, const ModelOutput& output,
                     const Batch& batch) override;
  void OnClientTrained(int round, int client, const Tensor& new_state) override;
  void OnRoundEnd(int round, const std::vector<int>& selected) override;
  /// Checkpointing: the map store and the DP noise stream (pending map
  /// updates are round-scoped and always empty at a round boundary).
  void SaveExtraState(CheckpointWriter* writer) const override;
  void LoadExtraState(CheckpointReader* reader) override;
  /// Remote jobs ship what ExtraLoss reads: whether the round's map
  /// broadcast reached this client and, if it did, the N-1 peer maps
  /// (the same delayed snapshot every in-process client of the round
  /// sees — pending updates commit only at round end).
  void EncodeTrainContext(int round, int client,
                          CheckpointWriter* writer) const override;
  void DecodeTrainContext(int round, int client,
                          CheckpointReader* reader) override;

 private:
  RegularizerOptions reg_;
  DeltaMapStore store_;
  /// Maps computed this round, committed at round end so that all clients
  /// of a round see the same delayed snapshot.
  std::vector<std::pair<int, Tensor>> pending_updates_;
  /// Whether this round's map broadcast reached each client; a client
  /// whose copy was lost trains without the regularizer this round.
  std::vector<char> map_received_;
  Rng noise_rng_;
  /// Worker-replica state installed by DecodeTrainContext: once active,
  /// ExtraLoss reads these instead of the (absent) server-side store.
  bool ctx_active_ = false;
  bool ctx_received_ = false;
  std::vector<Tensor> ctx_targets_;
};

/// rFedAvg+ — Algorithm 2 of the paper. Two modifications: (1) maps are
/// computed from the *synchronized global* model in a second
/// communication exchange per round, and (2) each client receives only
/// the leave-one-out average δ̄^{-k} instead of all N-1 maps, shrinking
/// the broadcast from O(d N^2) to O(d N). The local objective becomes
/// r̃_k = ||mean φ(batch) - δ̄^{-k}||², which has the same gradient
/// w.r.t. the local feature mean as r_k (Sec. IV-C).
class RFedAvgPlus : public FederatedAlgorithm {
 public:
  RFedAvgPlus(const FlConfig& config, const RegularizerOptions& reg,
              const Dataset* train_data, std::vector<ClientView> clients,
              const ModelFactory& model_factory);

  /// Pool-mode (cross-device scale) constructor: lazy client state plus a
  /// *sparse* map store — only clients that have ever reported hold a
  /// resident map, every other δ^k is the implicit zero of the paper's
  /// δ_0 initialization, and the leave-one-out averages reduce over the
  /// touched set with the canonical pairwise tree. The pool must outlive
  /// the algorithm.
  RFedAvgPlus(const FlConfig& config, const RegularizerOptions& reg,
              const ClientPool* pool, const ModelFactory& model_factory);

  const DeltaMapStore& delta_store() const { return store_; }
  const RegularizerOptions& regularizer_options() const { return reg_; }

 protected:
  void OnRoundStart(int round, const std::vector<int>& selected) override;
  Variable ExtraLoss(int client, const ModelOutput& output,
                     const Batch& batch) override;
  void OnRoundEnd(int round, const std::vector<int>& selected) override;
  /// Checkpointing: the map store and the DP noise stream.
  void SaveExtraState(CheckpointWriter* writer) const override;
  void LoadExtraState(CheckpointReader* reader) override;
  /// Remote jobs ship the delivery flag and the leave-one-out mean
  /// δ̄^{-k} — the only store-derived inputs of ExtraLoss.
  void EncodeTrainContext(int round, int client,
                          CheckpointWriter* writer) const override;
  void DecodeTrainContext(int round, int client,
                          CheckpointReader* reader) override;

 private:
  RegularizerOptions reg_;
  DeltaMapStore store_;
  /// Clients whose averaged-map broadcast arrived this round. A set (not
  /// a dense per-client vector) so pool-mode rounds cost O(cohort); the
  /// membership control flow is identical to the old flag vector.
  std::unordered_set<int> map_received_;
  Rng noise_rng_;
  /// Worker-replica state installed by DecodeTrainContext: once active,
  /// ExtraLoss reads these instead of the (absent) server-side store.
  bool ctx_active_ = false;
  bool ctx_received_ = false;
  Tensor ctx_loo_;
};

}  // namespace rfed

#endif  // RFED_CORE_RFEDAVG_H_
