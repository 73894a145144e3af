#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "data/partition.h"
#include "data/synthetic_images.h"
#include "fl/comm.h"
#include "fl/fedavg.h"
#include "fl/fedprox.h"
#include "fl/metrics.h"
#include "fl/model_state.h"
#include "fl/qfedavg.h"
#include "fl/scaffold.h"
#include "fl/trainer.h"
#include "nn/linear.h"

namespace rfed {
namespace {

// Small shared fixture data: an easy image task split over a few clients.
struct Fixture {
  Fixture()
      : rng(1),
        data(GenerateImageData(MnistLikeProfile(), 600, 200, &rng)),
        split(SimilarityPartition(data.train, 4, 0.0, &rng)) {
    for (auto& idx : split.client_indices) {
      views.push_back(ClientView{idx, {}});
    }
    CnnConfig config;
    config.conv1_channels = 4;
    config.conv2_channels = 8;
    config.feature_dim = 16;
    factory = MakeCnnFactory(config);
  }
  Rng rng;
  SyntheticImageData data;
  ClientSplit split;
  std::vector<ClientView> views;
  ModelFactory factory;
};

FlConfig SmallConfig() {
  FlConfig config;
  config.local_steps = 3;
  config.batch_size = 16;
  config.lr = 0.08;
  config.seed = 3;
  config.max_examples_per_pass = 128;
  return config;
}

TEST(ModelStateTest, FlattenLoadRoundTrip) {
  Rng rng(1);
  Linear layer(5, 3, &rng);
  auto params = layer.Parameters();
  Tensor flat = FlattenParameters(params);
  EXPECT_EQ(flat.size(), 5 * 3 + 3);
  Tensor perturbed = flat;
  perturbed.MulInPlace(2.0f);
  LoadParameters(perturbed, params);
  EXPECT_TRUE(AllClose(FlattenParameters(params), perturbed, 0.0f));
}

TEST(ModelStateTest, FlattenGradientsZeroWhenAbsent) {
  Rng rng(2);
  Linear layer(2, 2, &rng);
  Tensor grads = FlattenGradients(layer.Parameters());
  EXPECT_EQ(grads.MaxAbs(), 0.0f);
}

TEST(ModelStateTest, AddFlatToGradients) {
  Rng rng(3);
  Linear layer(2, 2, &rng);
  auto params = layer.Parameters();
  Tensor flat(Shape{ParameterCount(params)});
  for (int64_t i = 0; i < flat.size(); ++i) flat.at(i) = static_cast<float>(i);
  AddFlatToGradients(flat, 2.0, params);
  Tensor grads = FlattenGradients(params);
  for (int64_t i = 0; i < flat.size(); ++i) {
    EXPECT_FLOAT_EQ(grads.at(i), 2.0f * static_cast<float>(i));
  }
}

TEST(ModelStateTest, ProximalGradientIsMuTimesDeviation) {
  Rng rng(4);
  Linear layer(2, 2, &rng);
  auto params = layer.Parameters();
  Tensor reference = FlattenParameters(params);
  // Move the weights by +1 everywhere.
  Tensor moved = reference;
  for (int64_t i = 0; i < moved.size(); ++i) moved.at(i) += 1.0f;
  LoadParameters(moved, params);
  AddProximalToGradients(reference, 0.5, params);
  Tensor grads = FlattenGradients(params);
  for (int64_t i = 0; i < grads.size(); ++i) {
    EXPECT_NEAR(grads.at(i), 0.5f, 1e-6f);
  }
}

TEST(CommStatsTest, AccumulatesAndResetsRounds) {
  CommStats comm;
  comm.BeginRound();
  comm.Download(100);
  comm.Upload(40);
  EXPECT_EQ(comm.round_bytes(), 140);
  comm.BeginRound();
  comm.Download(10);
  EXPECT_EQ(comm.round_bytes(), 10);
  EXPECT_EQ(comm.total_bytes(), 150);
  EXPECT_EQ(comm.down_messages(), 2);
  EXPECT_EQ(comm.up_messages(), 1);
}

TEST(CommStatsTest, BeginRoundResetsMessageCounters) {
  // Regression: BeginRound() used to reset only the byte counters while
  // down_messages_/up_messages_ were cumulative-only; per-round message
  // counts must reset too, without touching the cumulative totals.
  CommStats comm;
  comm.BeginRound();
  comm.Download(100);
  comm.Upload(40);
  comm.Upload(1);
  EXPECT_EQ(comm.round_down_messages(), 1);
  EXPECT_EQ(comm.round_up_messages(), 2);
  EXPECT_EQ(comm.round_messages(), 3);
  comm.BeginRound();
  EXPECT_EQ(comm.round_down_messages(), 0);
  EXPECT_EQ(comm.round_up_messages(), 0);
  EXPECT_EQ(comm.round_messages(), 0);
  EXPECT_EQ(comm.down_messages(), 1);  // cumulative totals survive
  EXPECT_EQ(comm.up_messages(), 2);
  comm.Download(5);
  EXPECT_EQ(comm.round_down_messages(), 1);
  EXPECT_EQ(comm.down_messages(), 2);
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

TEST(MetricsTest, RoundsToReachAndFinalAccuracy) {
  RunHistory history;
  history.rounds = {Row(0, 1.0, 0.2, 0.1, 10),
                    Row(1, 0.8, std::nan(""), 0.1, 10),
                    Row(2, 0.5, 0.6, 0.1, 10), Row(3, 0.4, 0.7, 0.1, 10)};
  EXPECT_EQ(history.RoundsToReach(0.5), 3);
  EXPECT_EQ(history.RoundsToReach(0.9), -1);
  EXPECT_NEAR(history.FinalAccuracy(), 0.7, 1e-12);
  EXPECT_NEAR(history.BestAccuracy(), 0.7, 1e-12);
  EXPECT_EQ(history.TotalBytes(), 40);
}

TEST(MetricsTest, MeanStd) {
  MeanStd ms = ComputeMeanStd({1.0, 2.0, 3.0});
  EXPECT_NEAR(ms.mean, 2.0, 1e-12);
  EXPECT_NEAR(ms.stddev, std::sqrt(2.0 / 3.0), 1e-12);
}

TEST(FedAvgTest, AggregationIsWeightedAverage) {
  // Two clients with sizes 1 and 3: the aggregate must be 0.25/0.75
  // weighted. We freeze learning (lr = 0) so client states equal the
  // initial global state and aggregation must reproduce it exactly.
  Fixture fx;
  FlConfig config = SmallConfig();
  config.lr = 0.0;
  FedAvg algo(config, &fx.data.train, fx.views, fx.factory);
  const Tensor before = algo.global_state();
  algo.RunRound(0);
  EXPECT_TRUE(AllClose(algo.global_state(), before, 1e-6f));
}

TEST(FedAvgTest, TrainingImprovesAccuracy) {
  Fixture fx;
  FedAvg algo(SmallConfig(), &fx.data.train, fx.views, fx.factory);
  TrainerOptions options;
  options.eval_max_examples = 200;
  FederatedTrainer trainer(&algo, &fx.data.test, options);
  const double before = trainer.EvaluateGlobal();
  RunHistory history = trainer.Run(8);
  EXPECT_GT(history.FinalAccuracy(), before + 0.2);
}

TEST(FedAvgTest, CommBytesMatchModelSize) {
  Fixture fx;
  FedAvg algo(SmallConfig(), &fx.data.train, fx.views, fx.factory);
  algo.RunRound(0);
  // Full participation: N downloads + N uploads of the model.
  Rng init(1);
  auto model = fx.factory(&init);
  const int64_t model_bytes = StateBytes(model->Parameters());
  EXPECT_EQ(algo.comm().round_bytes(), 2 * 4 * model_bytes);
}

TEST(FedAvgTest, SampleRatioControlsCohort) {
  Fixture fx;
  FlConfig config = SmallConfig();
  config.sample_ratio = 0.5;  // 2 of 4 clients
  FedAvg algo(config, &fx.data.train, fx.views, fx.factory);
  algo.RunRound(0);
  Rng init(1);
  auto model = fx.factory(&init);
  const int64_t model_bytes = StateBytes(model->Parameters());
  EXPECT_EQ(algo.comm().round_bytes(), 2 * 2 * model_bytes);
}

TEST(FedAvgTest, DeterministicGivenSeed) {
  Fixture fx1, fx2;
  FedAvg a(SmallConfig(), &fx1.data.train, fx1.views, fx1.factory);
  FedAvg b(SmallConfig(), &fx2.data.train, fx2.views, fx2.factory);
  a.RunRound(0);
  b.RunRound(0);
  EXPECT_TRUE(AllClose(a.global_state(), b.global_state(), 0.0f));
}

TEST(FedAvgTest, KernelThreadsAboveOneAbortsWithRemovalMessage) {
  // The kernels run on their calling thread only; a config that still
  // asks for intra-op threads must fail loudly, not run serially.
  Fixture fx;
  FlConfig config = SmallConfig();
  config.kernel_threads = 2;
  EXPECT_DEATH(FedAvg(config, &fx.data.train, fx.views, fx.factory),
               "intra-op kernel threading was removed");
}

TEST(FedProxTest, ZeroMuMatchesFedAvg) {
  Fixture fx;
  FedAvg avg(SmallConfig(), &fx.data.train, fx.views, fx.factory);
  FedProx prox(SmallConfig(), 0.0, &fx.data.train, fx.views, fx.factory);
  avg.RunRound(0);
  prox.RunRound(0);
  EXPECT_TRUE(AllClose(avg.global_state(), prox.global_state(), 1e-6f));
}

TEST(FedProxTest, LargeMuPinsClientsToGlobal) {
  // mu must satisfy lr * mu < 1 for stable explicit proximal steps; with
  // lr = 0.08, mu = 10 contracts client drift strongly without diverging.
  Fixture fx;
  FlConfig config = SmallConfig();
  FedProx prox(config, 10.0, &fx.data.train, fx.views, fx.factory);
  const Tensor before = prox.global_state();
  prox.RunRound(0);
  Tensor drift = prox.global_state();
  drift.SubInPlace(before);
  FedAvg avg(config, &fx.data.train, fx.views, fx.factory);
  const Tensor avg_before = avg.global_state();
  avg.RunRound(0);
  Tensor avg_drift = avg.global_state();
  avg_drift.SubInPlace(avg_before);
  EXPECT_LT(drift.SquaredNorm(), avg_drift.SquaredNorm());
}

TEST(ScaffoldTest, RunsAndLearns) {
  Fixture fx;
  Scaffold algo(SmallConfig(), &fx.data.train, fx.views, fx.factory);
  TrainerOptions options;
  options.eval_max_examples = 200;
  FederatedTrainer trainer(&algo, &fx.data.test, options);
  const double before = trainer.EvaluateGlobal();
  RunHistory history = trainer.Run(8);
  EXPECT_GT(history.FinalAccuracy(), before + 0.2);
}

TEST(ScaffoldTest, ChargesControlVariateTraffic) {
  Fixture fx;
  Scaffold scaffold(SmallConfig(), &fx.data.train, fx.views, fx.factory);
  FedAvg avg(SmallConfig(), &fx.data.train, fx.views, fx.factory);
  scaffold.RunRound(0);
  avg.RunRound(0);
  EXPECT_EQ(scaffold.comm().round_bytes(), 2 * avg.comm().round_bytes());
}

TEST(QFedAvgTest, RunsAndLearns) {
  // q-FedAvg's normalized update is a markedly smaller effective step
  // than FedAvg's (the paper also observes slower convergence), so this
  // checks steady progress over a longer horizon instead of a big jump.
  Fixture fx;
  QFedAvg algo(SmallConfig(), 1.0, &fx.data.train, fx.views, fx.factory);
  TrainerOptions options;
  options.eval_max_examples = 200;
  FederatedTrainer trainer(&algo, &fx.data.test, options);
  RunHistory history = trainer.Run(25);
  EXPECT_GT(history.FinalAccuracy(), 0.3);
  EXPECT_LT(history.rounds.back().train_loss,
            0.7 * history.rounds.front().train_loss);
}

TEST(QFedAvgTest, GlobalStateStaysFinite) {
  Fixture fx;
  QFedAvg algo(SmallConfig(), 1.0, &fx.data.train, fx.views, fx.factory);
  for (int r = 0; r < 3; ++r) algo.RunRound(r);
  for (int64_t i = 0; i < algo.global_state().size(); ++i) {
    ASSERT_TRUE(std::isfinite(algo.global_state().at(i)));
  }
}

TEST(TrainerTest, PerClientAccuracyUsesTestSlices) {
  Fixture fx;
  // Give every client a private slice of the test set.
  std::vector<ClientView> views = fx.views;
  Rng rng(5);
  ClientSplit test_split = SimilarityPartition(fx.data.test, 4, 0.0, &rng);
  for (int k = 0; k < 4; ++k) {
    views[static_cast<size_t>(k)].test_indices =
        test_split.client_indices[static_cast<size_t>(k)];
  }
  FedAvg algo(SmallConfig(), &fx.data.train, views, fx.factory);
  TrainerOptions options;
  FederatedTrainer trainer(&algo, &fx.data.test, options);
  trainer.Run(3);
  const auto per_client = trainer.PerClientAccuracy(&fx.data.test, views);
  ASSERT_EQ(per_client.size(), 4u);
  for (double acc : per_client) {
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
  }
}

TEST(TrainerTest, HistoryHasRequestedRounds) {
  Fixture fx;
  FedAvg algo(SmallConfig(), &fx.data.train, fx.views, fx.factory);
  TrainerOptions options;
  options.eval_every = 2;
  FederatedTrainer trainer(&algo, &fx.data.test, options);
  RunHistory history = trainer.Run(5);
  ASSERT_EQ(history.rounds.size(), 5u);
  EXPECT_FALSE(std::isnan(history.rounds[0].test_accuracy));
  EXPECT_TRUE(std::isnan(history.rounds[1].test_accuracy));
  EXPECT_FALSE(std::isnan(history.rounds[4].test_accuracy));  // final round
  EXPECT_EQ(history.algorithm, "FedAvg");
}

}  // namespace
}  // namespace rfed
