// Second parameterized property suite: compression, optimizers on
// quadratics, checkpointing, FedAvgM, and dataset invariants swept
// across families of configurations.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "core/rfedavg.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "fl/checkpoint.h"
#include "fl/compression.h"
#include "fl/fedavg.h"
#include "fl/fedavgm.h"
#include "fl/fednova.h"
#include "fl/trainer.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace rfed {
namespace {

// ---- Property: every compressor keeps reconstruction error bounded
//      relative to the update norm and saves (or matches) bytes ----

class CompressorPropertyTest
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(CompressorPropertyTest, BoundedErrorAndAccountedBytes) {
  auto [name, dim] = GetParam();
  auto compressor = MakeCompressor(name);
  Rng rng(static_cast<uint64_t>(dim) * 31 + 7);
  Tensor update = Tensor::Normal(Shape{dim}, 0.0f, 0.05f, &rng);
  Tensor back = compressor->RoundTrip(update, &rng);
  ASSERT_EQ(back.shape(), update.shape());
  for (int64_t i = 0; i < back.size(); ++i) {
    ASSERT_TRUE(std::isfinite(back.at(i)));
  }
  EXPECT_GT(compressor->WireBytes(dim), 0);
  if (std::string(name) == "none") {
    EXPECT_TRUE(AllClose(back, update, 0.0f));
  }
  if (std::string(name) == "q8") {
    Tensor err = back;
    err.SubInPlace(update);
    // 8-bit quantization error is tiny relative to the signal.
    EXPECT_LT(err.SquaredNorm(), 0.01f * update.SquaredNorm() + 1e-6f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CompressorPropertyTest,
    ::testing::Combine(::testing::Values("none", "q8", "q4", "topk10",
                                         "topk1", "sketch"),
                       ::testing::Values(64, 500, 4096)));

// ---- Property: optimizers minimize a convex quadratic ----

class OptimizerConvergenceTest
    : public ::testing::TestWithParam<OptimizerKind> {};

TEST_P(OptimizerConvergenceTest, MinimizesQuadratic) {
  // f(w) = 0.5 * ||w - target||^2, gradient w - target.
  const OptimizerKind kind = GetParam();
  Variable w(Tensor(Shape{4}, {5.0f, -3.0f, 2.0f, 0.5f}), true);
  Tensor target(Shape{4}, {1.0f, 1.0f, 1.0f, 1.0f});
  auto optimizer = MakeOptimizer(kind, {&w}, 0.05);
  for (int step = 0; step < 800; ++step) {
    optimizer->ZeroGrad();
    Tensor grad = w.value();
    grad.SubInPlace(target);
    w.grad().AddInPlace(grad);
    optimizer->Step();
  }
  Tensor err = w.value();
  err.SubInPlace(target);
  EXPECT_LT(err.SquaredNorm(), 1e-3f) << "kind " << static_cast<int>(kind);
}

INSTANTIATE_TEST_SUITE_P(Kinds, OptimizerConvergenceTest,
                         ::testing::Values(OptimizerKind::kSgd,
                                           OptimizerKind::kRmsProp));

// ---- Checkpointing round trips ----

TEST(CheckpointTest, TensorFileRoundTrip) {
  Rng rng(5);
  Tensor t = Tensor::Normal(Shape{7, 3}, 0, 1, &rng);
  const std::string path = ::testing::TempDir() + "/ckpt_tensor.bin";
  SaveTensorToFile(t, path);
  Tensor back = LoadTensorFromFile(path);
  EXPECT_TRUE(AllClose(t, back, 0.0f));
  std::remove(path.c_str());
}

/// A history row with only the leading accounting fields set.
RoundMetrics Row(int round, double loss, double accuracy, double seconds,
                 int64_t bytes) {
  RoundMetrics m;
  m.round = round;
  m.train_loss = loss;
  m.test_accuracy = accuracy;
  m.round_seconds = seconds;
  m.round_bytes = bytes;
  return m;
}

TEST(CheckpointTest, HistoryCsvHasAllRounds) {
  RunHistory history;
  history.algorithm = "x";
  history.rounds = {Row(0, 1.0, 0.5, 0.01, 100),
                    Row(1, 0.9, std::nan(""), 0.01, 100)};
  const std::string path = ::testing::TempDir() + "/ckpt_history.csv";
  SaveHistoryCsv(history, path);
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 3);  // header + 2 rounds
  std::remove(path.c_str());
}

// ---- FedAvgM ----

class FedAvgMTest : public ::testing::TestWithParam<double> {};

TEST_P(FedAvgMTest, LearnsWithServerMomentum) {
  const double beta = GetParam();
  Rng rng(41);
  auto data = GenerateImageData(MnistLikeProfile(), 600, 200, &rng);
  auto split = SimilarityPartition(data.train, 5, 0.0, &rng);
  std::vector<ClientView> views;
  for (auto& idx : split.client_indices) views.push_back({idx, {}});
  CnnConfig mc;
  mc.conv1_channels = 4;
  mc.conv2_channels = 8;
  mc.feature_dim = 16;
  FlConfig config;
  config.local_steps = 3;
  config.batch_size = 16;
  config.lr = 0.05;
  config.seed = 3;
  FedAvgM algo(config, beta, &data.train, views, MakeCnnFactory(mc));
  TrainerOptions options;
  options.eval_max_examples = 200;
  FederatedTrainer trainer(&algo, &data.test, options);
  const double before = trainer.EvaluateGlobal();
  RunHistory history = trainer.Run(8);
  EXPECT_GT(history.BestAccuracy(), before + 0.15) << "beta " << beta;
  for (int64_t i = 0; i < algo.global_state().size(); ++i) {
    ASSERT_TRUE(std::isfinite(algo.global_state().at(i)));
  }
}

INSTANTIATE_TEST_SUITE_P(Betas, FedAvgMTest, ::testing::Values(0.0, 0.5, 0.9));

// ---- Fault-channel properties ----

namespace fault_props {

struct SmallFixture {
  SmallFixture()
      : rng(21),
        data(GenerateImageData(MnistLikeProfile(), 300, 100, &rng)),
        split(SimilarityPartition(data.train, 4, 0.0, &rng)) {
    for (auto& idx : split.client_indices) views.push_back({idx, {}});
    CnnConfig mc;
    mc.conv1_channels = 2;
    mc.conv2_channels = 4;
    mc.feature_dim = 8;
    factory = MakeCnnFactory(mc);
  }
  Rng rng;
  SyntheticImageData data;
  ClientSplit split;
  std::vector<ClientView> views;
  ModelFactory factory;
};

FlConfig SmallConfig() {
  FlConfig config;
  config.local_steps = 2;
  config.batch_size = 8;
  config.lr = 0.05;
  config.seed = 13;
  config.max_examples_per_pass = 64;
  return config;
}

}  // namespace fault_props

// Property: with every fault probability at zero, a run through the
// fault channel is bit-identical to the seed path — even with a retry
// budget and jittered backoff configured, the channel must consume no
// randomness and charge the exact same bytes.
TEST(FaultPathPropertyTest, ZeroProbabilitiesAreBitIdenticalToSeedPath) {
  using fault_props::SmallConfig;
  fault_props::SmallFixture fx1, fx2;
  FlConfig plain = SmallConfig();
  FlConfig routed = SmallConfig();
  routed.fault.max_retries = 3;
  routed.fault.backoff.jitter = 0.5;
  routed.fault.round_timeout_ms = 1.0;  // irrelevant: nothing ever fails
  FedAvg a(plain, &fx1.data.train, fx1.views, fx1.factory);
  FedAvg b(routed, &fx2.data.train, fx2.views, fx2.factory);
  for (int r = 0; r < 3; ++r) {
    a.RunRound(r);
    b.RunRound(r);
  }
  EXPECT_TRUE(AllClose(a.global_state(), b.global_state(), 0.0f));
  EXPECT_EQ(a.comm().total_bytes(), b.comm().total_bytes());
  EXPECT_EQ(a.comm().down_messages(), b.comm().down_messages());
  EXPECT_EQ(a.comm().up_messages(), b.comm().up_messages());
  EXPECT_EQ(std::as_const(b).channel().stats().dropped, 0);
  EXPECT_EQ(std::as_const(b).channel().stats().retried, 0);
}

// Property: whatever the drop pattern, aggregation weights over the
// survivors renormalize to 1. With lr = 0 every client returns the
// round-start state, so any weight mass lost to dropped clients would
// shrink the aggregate; invariance of the global state across faulty
// rounds is exactly the sum-to-1 property.
class DropRenormalizationTest
    : public ::testing::TestWithParam<std::tuple<const char*, double>> {};

TEST_P(DropRenormalizationTest, SurvivorWeightsSumToOne) {
  using fault_props::SmallConfig;
  auto [name, drop_prob] = GetParam();
  fault_props::SmallFixture fx;
  FlConfig config = SmallConfig();
  config.lr = 0.0;
  config.fault.drop_prob = drop_prob;
  config.fault.max_retries = 1;
  config.fault.round_timeout_ms = 0.0;
  std::unique_ptr<FederatedAlgorithm> algo;
  const std::string algo_name = name;
  if (algo_name == "fedavg") {
    algo = std::make_unique<FedAvg>(config, &fx.data.train, fx.views,
                                    fx.factory);
  } else if (algo_name == "fedavgm") {
    algo = std::make_unique<FedAvgM>(config, 0.9, &fx.data.train, fx.views,
                                     fx.factory);
  } else {
    algo = std::make_unique<FedNova>(config, 4, &fx.data.train, fx.views,
                                     fx.factory);
  }
  const Tensor before = algo->global_state();
  for (int r = 0; r < 5; ++r) algo->RunRound(r);
  EXPECT_TRUE(AllClose(algo->global_state(), before, 1e-5f))
      << name << " drop " << drop_prob;
  if (drop_prob > 0.0) {
    EXPECT_GT(std::as_const(*algo).channel().stats().dropped, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DropRenormalizationTest,
    ::testing::Combine(::testing::Values("fedavg", "fedavgm", "fednova"),
                       ::testing::Values(0.0, 0.3, 0.6)));

// Property: under any drop pattern, rFedAvg+'s averaged regularization
// target is the mean of the maps the server actually *received* — the
// leave-one-out mean must always agree with a manual average over the
// store's current (received-only) contents.
TEST(FaultPathPropertyTest, RFedAvgPlusAveragedMapIsMeanOfReceivedMaps) {
  using fault_props::SmallConfig;
  fault_props::SmallFixture fx;
  FlConfig config = SmallConfig();
  config.fault.drop_prob = 0.35;
  config.fault.max_retries = 2;
  config.fault.round_timeout_ms = 0.0;
  RegularizerOptions reg;
  reg.lambda = 0.01;
  RFedAvgPlus algo(config, reg, &fx.data.train, fx.views, fx.factory);
  TrainerOptions options;
  options.eval_max_examples = 100;
  options.eval_every = 4;
  FederatedTrainer trainer(&algo, &fx.data.test, options);
  RunHistory history = trainer.Run(4);

  const DeltaMapStore& store = algo.delta_store();
  const auto& maps = store.All();
  const int n = store.num_clients();
  for (int k = 0; k < n; ++k) {
    Tensor manual(Shape{store.feature_dim()});
    for (int j = 0; j < n; ++j) {
      if (j == k) continue;
      manual.AddInPlace(maps[static_cast<size_t>(j)]);
    }
    manual.MulInPlace(1.0f / static_cast<float>(n - 1));
    EXPECT_TRUE(AllClose(store.LeaveOneOutMean(k), manual, 1e-5f))
        << "client " << k;
  }
  // The run actually exercised the fault model and recorded it.
  EXPECT_GT(history.TotalDropped(), 0);
  EXPECT_GT(history.TotalRetried(), 0);
  EXPECT_GT(history.TotalDelivered(), 0);
}

// ---- Dataset determinism across profiles ----

class ProfileDeterminismTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ProfileDeterminismTest, SameSeedSameData) {
  const std::string name = GetParam();
  ImageProfile profile = name == "cifar"    ? CifarLikeProfile()
                         : name == "femnist" ? FemnistLikeProfile()
                                             : MnistLikeProfile();
  Rng a(9), b(9);
  auto da = GenerateImageData(profile, 80, 20, &a);
  auto db = GenerateImageData(profile, 80, 20, &b);
  EXPECT_EQ(da.train.labels(), db.train.labels());
  EXPECT_TRUE(AllClose(da.test.GetBatch({0, 5}).images,
                       db.test.GetBatch({0, 5}).images, 0.0f));
}

INSTANTIATE_TEST_SUITE_P(Profiles, ProfileDeterminismTest,
                         ::testing::Values("mnist", "cifar", "femnist"));

}  // namespace
}  // namespace rfed
