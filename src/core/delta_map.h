#ifndef RFED_CORE_DELTA_MAP_H_
#define RFED_CORE_DELTA_MAP_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.h"

namespace rfed {

/// Server-side store of the per-client feature-mean maps δ^k. Both
/// algorithms keep one map per client (Algorithm 1 line 13 / Algorithm 2
/// line 1); rFedAvg broadcasts the whole store to every client
/// (O(d N^2) traffic per round), rFedAvg+ only the per-client
/// leave-one-out average (O(d N)). Maps start at zero — the paper's
/// server initialization of δ_0 — and are refreshed as clients report.
///
/// Two storage modes:
///  - dense (the default): one tensor per client, resident from
///    construction. This is the golden-pinned path.
///  - sparse (pool-mode / cross-device scale): only clients that have
///    ever reported hold a tensor; every untouched client's map is the
///    implicit zero of the paper's δ_0 initialization. Aggregates are
///    computed over the *touched* set via the canonical pairwise
///    reduction tree of fl/shard_agg.h in ascending client-id order, so
///    the result is a pure function of the touched set — independent of
///    report order and thread count. (Skipping zero maps
///    is exact: x + 0.0f == x for every finite x.)
class DeltaMapStore {
 public:
  DeltaMapStore(int num_clients, int64_t feature_dim);

  /// Sparse store for pool-mode runs; holds only reported maps.
  static DeltaMapStore Sparse(int num_clients, int64_t feature_dim);

  int num_clients() const { return num_clients_; }
  int64_t feature_dim() const { return feature_dim_; }
  bool sparse() const { return sparse_; }

  void Update(int client, Tensor delta);
  const Tensor& Get(int client) const;

  /// Dense mode only: the full per-client map vector.
  const std::vector<Tensor>& All() const;

  /// Sparse mode: ascending ids of clients whose maps have been set.
  std::vector<int> TouchedClients() const;
  int num_touched() const { return static_cast<int>(sparse_deltas_.size()); }

  /// Sparse mode only: drop every stored map (back to the all-zero δ_0
  /// state); used when restoring a checkpoint into a used store.
  void Reset();

  /// δ̄^{-k}: mean over all maps except `client` (Algorithm 2 line 18).
  Tensor LeaveOneOutMean(int client) const;

  /// All maps except `client` (the broadcast targets of Algorithm 1).
  /// Dense mode only.
  std::vector<Tensor> AllExcept(int client) const;

  /// Wire size of one map (float32 payload) — the per-client unit of
  /// Table III.
  int64_t MapBytes() const;

  /// Wire size of the rFedAvg broadcast to one client: N-1 maps.
  int64_t BroadcastBytesPairwise() const;

  /// Wire size of the rFedAvg+ broadcast to one client: one averaged map.
  int64_t BroadcastBytesAveraged() const { return MapBytes(); }

 private:
  DeltaMapStore(int num_clients, int64_t feature_dim, bool sparse);

  int num_clients_;
  int64_t feature_dim_;
  bool sparse_;
  std::vector<Tensor> deltas_;                   ///< dense mode
  std::unordered_map<int, Tensor> sparse_deltas_;  ///< sparse mode
  Tensor zero_;  ///< shared implicit map of untouched sparse clients
};

}  // namespace rfed

#endif  // RFED_CORE_DELTA_MAP_H_
