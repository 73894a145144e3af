#ifndef RFED_DATA_CLIENT_POOL_H_
#define RFED_DATA_CLIENT_POOL_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace rfed {

/// Configuration of a lazily materialized cross-device population.
struct ClientPoolOptions {
  int num_clients = 0;             ///< Enrolled population size N.
  int examples_per_client = 0;     ///< Training examples per client view.
  int test_examples_per_client = 0;  ///< 0 disables per-client test views.
  /// Fraction of each client's examples drawn IID from the whole pool; the
  /// remainder comes from the client's primary-class slice. Mirrors the
  /// paper's similarity-s partitioner (data/partition.h) in expectation.
  double similarity = 0.0;
  uint64_t seed = 0;               ///< Root seed of all per-client streams.
};

/// Cross-device client population over a shared synthetic pool.
///
/// An explicit partition (data/partition.h) holds one index list per
/// client, all resident from the algorithm's construction — O(N) memory
/// and time, fine at the paper's N ~ 100 but not at the cross-device
/// regime of 10^5..10^6 enrolled devices with a few hundred sampled per
/// round. A ClientPool instead stores only the
/// shared pool plus O(num_classes) class slices; client k's view is a
/// pure function of (seed, k) recomputed on demand via MixSeed
/// (util/rng.h), so materializing a round costs O(sampled), and the view
/// is byte-identical no matter when — or how often — it is materialized.
/// That identity is what tests/scale_test.cc pins differentially against
/// eager per-client copies.
///
/// Unlike the explicit partitioners, views are drawn *with* replacement
/// from the pool, so two clients may share a pool example; weights stay
/// exact because every client view has the same size.
class ClientPool {
 public:
  /// Pools must outlive the ClientPool. test_pool may be null when
  /// options.test_examples_per_client == 0.
  ClientPool(const Dataset* train_pool, const Dataset* test_pool,
             const ClientPoolOptions& options);

  int num_clients() const { return options_.num_clients; }
  const ClientPoolOptions& options() const { return options_; }
  const Dataset& train_pool() const { return *train_pool_; }
  const Dataset* test_pool() const { return test_pool_; }

  /// Examples over all client views (every view has the same size), the
  /// n of the FedAvg weights p_k = n_k / n.
  int64_t TotalExamples() const {
    return static_cast<int64_t>(options_.num_clients) *
           options_.examples_per_client;
  }

  /// Primary class of client k: contiguous blocks of client ids map to
  /// classes, mirroring the sorted-shard dealing of SimilarityPartition.
  int ClientClass(int k) const;

  /// Training-pool indices of client k's view, recomputed deterministically
  /// from (seed, k). O(examples_per_client).
  std::vector<int> TrainIndices(int k) const;

  /// Test-pool indices of client k's view (empty when disabled).
  std::vector<int> TestIndices(int k) const;

  /// Eager reference: materializes every client's train view, O(N).
  /// Exists for the differential test harness and small-N tooling only —
  /// the simulator itself never calls this in pool mode.
  std::vector<std::vector<int>> MaterializeAllTrainIndices() const;

 private:
  std::vector<int> DrawView(int k, uint64_t lineage, const Dataset& pool,
                            const std::vector<std::vector<int>>& by_class,
                            int count) const;

  const Dataset* train_pool_;
  const Dataset* test_pool_;
  ClientPoolOptions options_;
  std::vector<std::vector<int>> train_by_class_;
  std::vector<std::vector<int>> test_by_class_;
};

}  // namespace rfed

#endif  // RFED_DATA_CLIENT_POOL_H_
