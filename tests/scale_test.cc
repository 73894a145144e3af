// Cross-device scale suite (`ctest -L scale`): pins the lazy client
// state, the server's tree mean, and the streaming-fold machinery
// introduced for the 10^5..10^6-client regime.
//
//  - Property tests: the streaming (binary-counter) accumulator
//    reproduces the canonical pairwise reduction tree exactly in
//    O(log n) memory, and the sharded robust rules match their flat
//    originals at every thread count.
//  - Differential tests: lazily materialized pool clients produce the
//    same batch streams and the same multi-round model as eager
//    materialization of every client at startup, and the model does not
//    depend on the fold's chunk size or the training thread count.
//  - Kill-and-resume at N = 10,000 enrolled clients is bit-identical,
//    and a checkpoint naming a client id outside the pool aborts.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rfedavg.h"
#include "data/batcher.h"
#include "data/client_pool.h"
#include "data/synthetic_images.h"
#include "fl/checkpoint.h"
#include "fl/fedavg.h"
#include "fl/robust_agg.h"
#include "fl/shard_agg.h"
#include "nn/models.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rfed {
namespace {

void ExpectBitEqual(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.at(i), b.at(i)) << what << " coordinate " << i;
  }
}

std::vector<Tensor> RandomLeaves(int m, int64_t dim, Rng* rng) {
  std::vector<Tensor> leaves;
  leaves.reserve(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    Tensor t(Shape{dim});
    for (int64_t i = 0; i < dim; ++i) {
      t.at(i) = static_cast<float>(rng->Uniform() * 2.0 - 1.0);
    }
    leaves.push_back(std::move(t));
  }
  return leaves;
}

// ---- Canonical tree properties ----

/// `leaves` scaled by `scales`, one copy each.
std::vector<Tensor> ScaledLeaves(const std::vector<Tensor>& leaves,
                                 const std::vector<float>& scales) {
  std::vector<Tensor> out;
  for (size_t j = 0; j < leaves.size(); ++j) {
    out.push_back(leaves[j]);
    out.back().MulInPlace(scales[j]);
  }
  return out;
}

TEST(ShardTreeTest, StreamingAccumulatorMatchesPairwiseTree) {
  Rng rng(12);
  for (int m : {1, 2, 3, 7, 64, 100}) {
    const std::vector<Tensor> leaves = RandomLeaves(m, 23, &rng);
    std::vector<float> scales;
    for (int j = 0; j < m; ++j) {
      scales.push_back(static_cast<float>(0.5 + rng.Uniform()));
    }
    const std::vector<Tensor> scaled = ScaledLeaves(leaves, scales);
    std::vector<const Tensor*> borrowed;
    for (const Tensor& t : scaled) borrowed.push_back(&t);
    const Tensor reference = PairwiseTreeSum(borrowed);
    StreamingTreeSum acc;
    for (const Tensor& leaf : scaled) acc.Push(leaf);
    EXPECT_EQ(acc.leaves(), m);
    // O(log n) peak: the stack never holds more than ceil(log2(m)) + 1
    // tensors regardless of m.
    int64_t cap = 1;
    while ((1 << cap) < m + 1) ++cap;
    EXPECT_LE(acc.peak_bytes(), (cap + 1) * 23 * 4) << "m=" << m;
    ExpectBitEqual(acc.Finish(), reference, "stream m=" + std::to_string(m));
  }
}

TEST(ShardTreeTest, PairwiseTreeSumSplitsOffTheLargestPowerOfTwo) {
  Rng rng(13);
  const std::vector<Tensor> leaves = RandomLeaves(7, 17, &rng);
  std::vector<const Tensor*> borrowed;
  for (const Tensor& t : leaves) borrowed.push_back(&t);
  // Seven leaves split 4 + 3, the 3 split 2 + 1:
  // ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + l6).
  const auto add = [](Tensor a, const Tensor& b) {
    a.AddInPlace(b);
    return a;
  };
  const Tensor expected =
      add(add(add(leaves[0], leaves[1]), add(leaves[2], leaves[3])),
          add(add(leaves[4], leaves[5]), leaves[6]));
  ExpectBitEqual(PairwiseTreeSum(borrowed), expected, "pairwise tree");
}

// ---- Sharded robust rules vs their flat originals ----

TEST(ShardedRobustTest, MatchesFlatRulesAtEveryThreadCount) {
  Rng rng(15);
  const std::vector<Tensor> values = RandomLeaves(9, 41, &rng);
  std::vector<double> weights;
  for (int j = 0; j < 9; ++j) weights.push_back(0.5 + rng.Uniform());
  ThreadPool pool4(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool4}) {
    const std::string tag = pool ? " threads=4" : " threads=1";
    ExpectBitEqual(ShardedTrimmedMean(values, weights, 0.2, pool),
                   CoordinateTrimmedMean(values, weights, 0.2),
                   "trimmed_mean" + tag);
    ExpectBitEqual(ShardedMedian(values, weights, pool),
                   CoordinateMedian(values, weights), "median" + tag);
    Tensor reference(Shape{41});
    for (int64_t i = 0; i < reference.size(); ++i) {
      reference.at(i) = 0.1f * static_cast<float>(i % 7);
    }
    NormClipReport flat_report, sharded_report;
    ExpectBitEqual(
        ShardedNormBoundedMean(reference, values, weights, 1.5,
                               &sharded_report, pool),
        NormBoundedMean(reference, values, weights, 1.5, &flat_report),
        "norm_clip" + tag);
    EXPECT_EQ(sharded_report.clipped, flat_report.clipped);
    EXPECT_EQ(sharded_report.bound, flat_report.bound);
  }
}

// ---- Lazy client pool determinism ----

struct ScaleFixture {
  ScaleFixture()
      : rng(4321), data(GenerateImageData(MnistLikeProfile(), 240, 120, &rng)) {
    CnnConfig mc;
    mc.conv1_channels = 2;
    mc.conv2_channels = 4;
    mc.feature_dim = 8;
    factory = MakeCnnFactory(mc);
  }

  ClientPoolOptions PoolOpts(int n) const {
    ClientPoolOptions o;
    o.num_clients = n;
    o.examples_per_client = 24;
    o.test_examples_per_client = 0;
    o.similarity = 0.3;
    o.seed = 99;
    return o;
  }

  Rng rng;
  SyntheticImageData data;
  ModelFactory factory;
};

FlConfig ScaleConfig() {
  FlConfig config;
  config.local_steps = 2;
  config.batch_size = 8;
  config.lr = 0.05;
  config.seed = 77;
  config.max_examples_per_pass = 64;
  return config;
}

TEST(ClientPoolTest, ViewsAreAPureFunctionOfSeedAndId) {
  ScaleFixture fx;
  ClientPool pool(&fx.data.train, nullptr, fx.PoolOpts(1000));
  const std::vector<int> first = pool.TrainIndices(7);
  // Unrelated materializations must not perturb client 7's view.
  (void)pool.TrainIndices(500);
  (void)pool.TrainIndices(999);
  EXPECT_EQ(pool.TrainIndices(7), first);
  EXPECT_EQ(static_cast<int>(first.size()), 24);
  for (int idx : first) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, fx.data.train.size());
  }
  EXPECT_EQ(pool.ClientClass(0), 0);
  EXPECT_EQ(pool.ClientClass(999), fx.data.train.num_classes() - 1);
}

TEST(ClientPoolTest, LazyViewsEqualEagerMaterialization) {
  ScaleFixture fx;
  ClientPool pool(&fx.data.train, nullptr, fx.PoolOpts(100));
  const std::vector<std::vector<int>> eager = pool.MaterializeAllTrainIndices();
  ASSERT_EQ(eager.size(), 100u);
  for (int k = 0; k < 100; ++k) {
    EXPECT_EQ(pool.TrainIndices(k), eager[static_cast<size_t>(k)])
        << "client " << k;
  }
}

TEST(ClientPoolTest, BatcherStreamIndependentOfMaterializationTime) {
  ScaleFixture fx;
  ClientPool pool(&fx.data.train, nullptr, fx.PoolOpts(100));
  const FlConfig config = ScaleConfig();
  // "Early" batcher: built at startup, as eager materialization would.
  Batcher early(&fx.data.train, pool.TrainIndices(42), config.batch_size,
                Rng(MixSeed(config.seed, kPoolBatcherLineage, 42)));
  // "Late" batcher: built after arbitrary other RNG traffic, as round-40
  // lazy materialization would. MixSeed keys the stream on (seed, k)
  // alone, so the two must deal identical batches.
  Rng unrelated(5);
  for (int i = 0; i < 1000; ++i) unrelated.Uniform();
  (void)pool.TrainIndices(7);
  Batcher late(&fx.data.train, pool.TrainIndices(42), config.batch_size,
               Rng(MixSeed(config.seed, kPoolBatcherLineage, 42)));
  for (int b = 0; b < 9; ++b) {
    const Batch a = early.Next();
    const Batch c = late.Next();
    ASSERT_EQ(a.labels, c.labels) << "batch " << b;
    ExpectBitEqual(a.images, c.images, "batch " + std::to_string(b));
  }
}

// ---- End-to-end pool-mode invariance ----

Tensor RunPoolFedAvg(const ScaleFixture& fx, const ClientPool& pool,
                     FlConfig config, int rounds, bool eager = false,
                     std::vector<double>* losses = nullptr) {
  FedAvg algo(config, &pool, fx.factory);
  if (eager) algo.MaterializeAllClients();
  for (int r = 0; r < rounds; ++r) {
    const RoundResult result = algo.RunRound(r);
    if (losses != nullptr) losses->push_back(result.train_loss);
  }
  return algo.global_state();
}

TEST(ScaleE2ETest, FedAvgInvariantToChunkAndThreads) {
  ScaleFixture fx;
  ClientPool pool(&fx.data.train, nullptr, fx.PoolOpts(100));
  FlConfig config = ScaleConfig();
  config.sample_ratio = 0.2;
  std::vector<double> ref_losses;
  const Tensor reference = RunPoolFedAvg(fx, pool, config, 3, false,
                                         &ref_losses);
  for (int threads : {1, 4}) {
    for (int chunk : {0, 7}) {
      FlConfig vc = config;
      vc.num_threads = threads;
      vc.stream_chunk = chunk;
      std::vector<double> losses;
      const Tensor got = RunPoolFedAvg(fx, pool, vc, 3, false, &losses);
      const std::string tag = "threads=" + std::to_string(threads) +
                              " stream_chunk=" + std::to_string(chunk);
      EXPECT_EQ(losses, ref_losses) << tag;
      ExpectBitEqual(got, reference, tag);
    }
  }
}

TEST(ScaleE2ETest, RobustAggregatorsInvariantToChunkAndThreads) {
  ScaleFixture fx;
  ClientPool pool(&fx.data.train, nullptr, fx.PoolOpts(100));
  for (const char* aggregator : {"trimmed_mean", "median", "norm_clip"}) {
    FlConfig config = ScaleConfig();
    config.sample_ratio = 0.2;
    config.robust.aggregator = aggregator;
    const Tensor reference = RunPoolFedAvg(fx, pool, config, 2);
    for (int threads : {1, 4}) {
      for (int chunk : {0, 7}) {
        if (threads == 1 && chunk == 0) continue;
        FlConfig vc = config;
        vc.num_threads = threads;
        vc.stream_chunk = chunk;
        ExpectBitEqual(RunPoolFedAvg(fx, pool, vc, 2), reference,
                       std::string(aggregator) +
                           " threads=" + std::to_string(threads) +
                           " stream_chunk=" + std::to_string(chunk));
      }
    }
  }
}

TEST(ScaleE2ETest, LazyMaterializationEqualsEagerByteForByte) {
  ScaleFixture fx;
  ClientPool pool(&fx.data.train, nullptr, fx.PoolOpts(100));
  FlConfig config = ScaleConfig();
  config.sample_ratio = 0.2;
  std::vector<double> lazy_losses, eager_losses;
  FedAvg lazy(config, &pool, fx.factory);
  FedAvg eager(config, &pool, fx.factory);
  eager.MaterializeAllClients();
  EXPECT_EQ(eager.materialized_clients(), 100);
  for (int r = 0; r < 3; ++r) {
    lazy_losses.push_back(lazy.RunRound(r).train_loss);
    eager_losses.push_back(eager.RunRound(r).train_loss);
  }
  EXPECT_EQ(lazy_losses, eager_losses);
  ExpectBitEqual(lazy.global_state(), eager.global_state(), "lazy vs eager");
  // The lazy run only ever touched its sampled cohorts.
  EXPECT_LE(lazy.materialized_clients(), 3 * 20);
  EXPECT_LT(lazy.materialized_clients(), 100);
}

TEST(ScaleE2ETest, RFedAvgPlusInvariantToChunkAndThreads) {
  ScaleFixture fx;
  ClientPool pool(&fx.data.train, nullptr, fx.PoolOpts(100));
  RegularizerOptions reg;
  reg.lambda = 1e-3;
  FlConfig config = ScaleConfig();
  config.sample_ratio = 0.2;
  auto run = [&](const FlConfig& c) {
    RFedAvgPlus algo(c, reg, &pool, fx.factory);
    for (int r = 0; r < 2; ++r) algo.RunRound(r);
    EXPECT_LE(algo.delta_store().num_touched(), algo.materialized_clients());
    return algo.global_state();
  };
  const Tensor reference = run(config);
  for (int threads : {1, 4}) {
    for (int chunk : {0, 7}) {
      if (threads == 1 && chunk == 0) continue;
      FlConfig vc = config;
      vc.num_threads = threads;
      vc.stream_chunk = chunk;
      ExpectBitEqual(run(vc), reference,
                     "rfedavg+ threads=" + std::to_string(threads) +
                         " stream_chunk=" + std::to_string(chunk));
    }
  }
}

TEST(ScaleE2ETest, StreamingFoldMatchesAllAtOnce) {
  ScaleFixture fx;
  ClientPool pool(&fx.data.train, nullptr, fx.PoolOpts(100));
  for (const char* compressor : {"none", "q8"}) {
    FlConfig config = ScaleConfig();
    config.sample_ratio = 0.3;
    config.upload_compressor = compressor;
    const Tensor reference = RunPoolFedAvg(fx, pool, config, 3);
    // A chunk that does not divide the cohort exercises the final
    // partial chunk; chunk 1 exercises the degenerate fold.
    for (int chunk : {1, 7, 64}) {
      FlConfig vc = config;
      vc.stream_chunk = chunk;
      ExpectBitEqual(RunPoolFedAvg(fx, pool, vc, 3), reference,
                     std::string(compressor) + " stream_chunk=" +
                         std::to_string(chunk));
    }
  }
}

TEST(ScaleE2ETest, StreamingRFedAvgPlusMatchesAllAtOnce) {
  ScaleFixture fx;
  ClientPool pool(&fx.data.train, nullptr, fx.PoolOpts(100));
  RegularizerOptions reg;
  reg.lambda = 1e-3;
  FlConfig config = ScaleConfig();
  config.sample_ratio = 0.2;
  auto run = [&](int chunk) {
    FlConfig c = config;
    c.stream_chunk = chunk;
    RFedAvgPlus algo(c, reg, &pool, fx.factory);
    for (int r = 0; r < 2; ++r) algo.RunRound(r);
    return algo.global_state();
  };
  ExpectBitEqual(run(7), run(0), "rfedavg+ streaming");
}

std::vector<ClientView> ExplicitViews(const ScaleFixture& fx, int n) {
  ClientPool seed_pool(&fx.data.train, nullptr, fx.PoolOpts(n));
  std::vector<ClientView> views;
  for (int k = 0; k < n; ++k) {
    views.push_back(ClientView{seed_pool.TrainIndices(k), {}});
  }
  return views;
}

TEST(ScaleE2ETest, ExplicitPartitionChunkedThreadedFoldMatchesWholeCohort) {
  ScaleFixture fx;
  const std::vector<ClientView> views = ExplicitViews(fx, 7);
  RegularizerOptions reg;
  reg.lambda = 1e-3;
  FlConfig config = ScaleConfig();
  auto run = [&](const std::string& method, int chunk, int threads) {
    FlConfig c = config;
    c.stream_chunk = chunk;
    c.num_threads = threads;
    std::unique_ptr<FederatedAlgorithm> algo;
    if (method == "fedavg") {
      algo = std::make_unique<FedAvg>(c, &fx.data.train, views, fx.factory);
    } else {
      algo = std::make_unique<RFedAvgPlus>(c, reg, &fx.data.train, views,
                                           fx.factory);
    }
    for (int r = 0; r < 3; ++r) algo->RunRound(r);
    return algo->global_state();
  };
  for (const std::string method : {"fedavg", "rfedavg_plus"}) {
    ExpectBitEqual(run(method, 2, 4), run(method, 0, 1),
                   method + " stream_chunk=2 threads=4");
  }
}

// ---- Kill-and-resume under lazy materialization ----

TEST(ScaleResumeTest, KillAndResumeAtTenThousandClientsIsBitIdentical) {
  ScaleFixture fx;
  ClientPool pool(&fx.data.train, nullptr, fx.PoolOpts(10000));
  FlConfig config = ScaleConfig();
  config.sample_ratio = 0.005;  // 50 sampled per round

  // Uninterrupted 4-round reference.
  FedAvg full(config, &pool, fx.factory);
  for (int r = 0; r < 4; ++r) full.RunRound(r);

  // "Crashed" run: 2 rounds, checkpoint, whole process state discarded.
  std::vector<uint8_t> blob;
  {
    FedAvg crashed(config, &pool, fx.factory);
    for (int r = 0; r < 2; ++r) crashed.RunRound(r);
    crashed.SaveRunState(&blob);
    EXPECT_LE(crashed.materialized_clients(), 100);
  }

  // Fresh instance, restore, continue.
  FedAvg resumed(config, &pool, fx.factory);
  resumed.LoadRunState(blob);
  for (int r = 2; r < 4; ++r) resumed.RunRound(r);

  ExpectBitEqual(resumed.global_state(), full.global_state(), "resume");
  EXPECT_EQ(resumed.materialized_clients(), full.materialized_clients());
}

TEST(ScaleResumeTest, RFedAvgPlusSparseMapsSurviveResume) {
  ScaleFixture fx;
  ClientPool pool(&fx.data.train, nullptr, fx.PoolOpts(1000));
  RegularizerOptions reg;
  reg.lambda = 1e-3;
  FlConfig config = ScaleConfig();
  config.sample_ratio = 0.02;  // 20 sampled per round

  RFedAvgPlus full(config, reg, &pool, fx.factory);
  for (int r = 0; r < 4; ++r) full.RunRound(r);

  std::vector<uint8_t> blob;
  {
    RFedAvgPlus crashed(config, reg, &pool, fx.factory);
    for (int r = 0; r < 2; ++r) crashed.RunRound(r);
    crashed.SaveRunState(&blob);
  }

  RFedAvgPlus resumed(config, reg, &pool, fx.factory);
  resumed.LoadRunState(blob);
  for (int r = 2; r < 4; ++r) resumed.RunRound(r);

  ExpectBitEqual(resumed.global_state(), full.global_state(),
                 "rfedavg+ resume");
  EXPECT_EQ(resumed.delta_store().num_touched(),
            full.delta_store().num_touched());
  for (int id : full.delta_store().TouchedClients()) {
    ExpectBitEqual(resumed.delta_store().Get(id), full.delta_store().Get(id),
                   "map of client " + std::to_string(id));
  }
}

// ---- Checkpoint format hardening ----

TEST(ScaleDeathTest, CheckpointNamingClientBeyondPoolAborts) {
  ScaleFixture fx;
  ClientPool pool(&fx.data.train, nullptr, fx.PoolOpts(16));
  FedAvg algo(ScaleConfig(), &pool, fx.factory);
  // Hand-built pool-source blob whose client section names client 99 —
  // outside this 16-client pool. The id bounds check must fire before
  // any of the (absent) section payload is read. The header here pins
  // the on-disk layout: name, source tag, client count.
  std::vector<uint8_t> blob;
  CheckpointWriter w(&blob);
  w.WriteString("FedAvg");
  w.WriteBool(true);  // source tag: pool
  w.WriteI32(16);
  w.WriteTensor(algo.global_state());
  w.WriteRng(Rng(1).SaveState());
  w.WriteU32(1);   // one saved client section
  w.WriteI32(99);  // client id beyond the pool
  EXPECT_DEATH(algo.LoadRunState(blob), "names client id 99");
}

TEST(ScaleDeathTest, CheckpointBatcherIndexCountBeyondViewAborts) {
  ScaleFixture fx;
  FedAvg algo(ScaleConfig(), &fx.data.train, ExplicitViews(fx, 3), fx.factory);
  // Explicit-source blob whose first client section claims 2^32 - 1
  // batcher indices. The decoder must refuse the count against the
  // client's 24-index view before allocating anything.
  std::vector<uint8_t> blob;
  CheckpointWriter w(&blob);
  w.WriteString("FedAvg");
  w.WriteBool(false);  // source tag: explicit
  w.WriteI32(3);
  w.WriteTensor(algo.global_state());
  w.WriteRng(Rng(1).SaveState());
  w.WriteU32(3);
  w.WriteI32(0);
  w.WriteU32(0xFFFFFFFFu);  // index count
  EXPECT_DEATH(algo.LoadRunState(blob), "batcher state decoder: index count");
}

TEST(ScaleDeathTest, BatcherBaseIndexCountBeyondViewAborts) {
  ScaleFixture fx;
  FedAvg algo(ScaleConfig(), &fx.data.train, ExplicitViews(fx, 3), fx.factory);
  // A 4-byte JOB batcher base holding only an oversized index count.
  std::vector<uint8_t> blob;
  CheckpointWriter w(&blob);
  w.WriteU32(0xFFFFFFFFu);
  EXPECT_DEATH(algo.InstallBatcherBase(1, blob),
               "batcher state decoder: index count");
}

TEST(ScaleDeathTest, CheckpointFromDifferentPoolSizeAborts) {
  ScaleFixture fx;
  ClientPool pool100(&fx.data.train, nullptr, fx.PoolOpts(100));
  ClientPool pool16(&fx.data.train, nullptr, fx.PoolOpts(16));
  FlConfig config = ScaleConfig();
  config.sample_ratio = 0.2;
  FedAvg saver(config, &pool100, fx.factory);
  saver.RunRound(0);
  std::vector<uint8_t> blob;
  saver.SaveRunState(&blob);
  FedAvg loader(config, &pool16, fx.factory);
  EXPECT_DEATH(loader.LoadRunState(blob), "pool of 100");
}

TEST(ScaleDeathTest, LegacyCheckpointIntoPoolModeAborts) {
  ScaleFixture fx;
  // Legacy (dense) run over 3 explicit views...
  std::vector<ClientView> views;
  ClientPool seed_pool(&fx.data.train, nullptr, fx.PoolOpts(3));
  for (int k = 0; k < 3; ++k) {
    views.push_back(ClientView{seed_pool.TrainIndices(k), {}});
  }
  FedAvg legacy(ScaleConfig(), &fx.data.train, views, fx.factory);
  legacy.RunRound(0);
  std::vector<uint8_t> blob;
  legacy.SaveRunState(&blob);
  // ...cannot restore into a pool-mode instance: the magic word check
  // rejects the dense format before any state is touched.
  ClientPool pool(&fx.data.train, nullptr, fx.PoolOpts(16));
  FedAvg loader(ScaleConfig(), &pool, fx.factory);
  EXPECT_DEATH(loader.LoadRunState(blob), "pool-mode");
}

}  // namespace
}  // namespace rfed
