#ifndef RFED_FL_SCAFFOLD_H_
#define RFED_FL_SCAFFOLD_H_

#include "fl/algorithm.h"

namespace rfed {

/// SCAFFOLD (Karimireddy et al., ICML'20): stochastic controlled
/// averaging. Each client keeps a control variate c_k and the server a
/// global c; local gradients are corrected by (c - c_k), and after local
/// training c_k is refreshed with option II of the paper:
///   c_k+ = c_k - c + (x - y_k) / (E * lr).
/// The server aggregates models like FedAvg (global step eta_g = 1) and,
/// once per round as in the reference Alg. 1, updates
/// c <- c + (1/N) * sum_{k delivered}(c_k+ - c_k), so every client of a
/// round trains against the same round-start c. Control variates double
/// the per-round communication, which the ledger charges.
class Scaffold : public FederatedAlgorithm {
 public:
  Scaffold(const FlConfig& config, const Dataset* train_data,
           std::vector<ClientView> clients, const ModelFactory& model_factory);

  /// The server control c (committed at round end).
  const Tensor& global_control() const { return global_control_; }

 protected:
  void OnRoundStart(int round, const std::vector<int>& selected) override;
  void PostBackward(int client,
                    const std::vector<Variable*>& params) override;
  void OnClientTrained(int round, int client, const Tensor& new_state) override;
  void OnRoundEnd(int round, const std::vector<int>& selected) override;
  /// Checkpointing: the control variates are the algorithm's only state
  /// beyond the base class (round_start_state_ and pending_control_ are
  /// round-scoped).
  void SaveExtraState(CheckpointWriter* writer) const override;
  void LoadExtraState(CheckpointReader* reader) override;
  /// Remote jobs ship the controls PostBackward reads: the round-start c
  /// and the client's c_k.
  void EncodeTrainContext(int round, int client,
                          CheckpointWriter* writer) const override;
  void DecodeTrainContext(int round, int client,
                          CheckpointReader* reader) override;

 private:
  Tensor round_start_state_;
  Tensor global_control_;               // c
  Tensor pending_control_;              // this round's sum of (c_k+ - c_k)/N
  std::vector<Tensor> client_controls_; // c_k
};

}  // namespace rfed

#endif  // RFED_FL_SCAFFOLD_H_
