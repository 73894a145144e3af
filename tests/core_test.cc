#include <cmath>

#include <gtest/gtest.h>

#include "core/convex_objective.h"
#include "core/delta_map.h"
#include "core/dp_noise.h"
#include "core/mmd.h"
#include "core/rfedavg.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "fl/checkpoint.h"
#include "fl/fedavg.h"
#include "fl/model_state.h"
#include "fl/trainer.h"
#include "test_util.h"

namespace rfed {
namespace {

using ::rfed::testing::MaxGradCheckError;

TEST(MmdTest, ZeroForIdenticalMeans) {
  Tensor a(Shape{4}, {1, 2, 3, 4});
  EXPECT_EQ(MmdSquared(a, a), 0.0f);
}

TEST(MmdTest, SymmetricAndPositive) {
  Tensor a(Shape{3}, {1, 0, 0});
  Tensor b(Shape{3}, {0, 1, 0});
  EXPECT_EQ(MmdSquared(a, b), MmdSquared(b, a));
  EXPECT_FLOAT_EQ(MmdSquared(a, b), 2.0f);
}

TEST(MmdTest, SampleEstimatorMatchesMeanDistance) {
  Tensor fa(Shape{2, 2}, {1, 0, 3, 0});  // mean (2, 0)
  Tensor fb(Shape{2, 2}, {0, 1, 0, 3});  // mean (0, 2)
  EXPECT_FLOAT_EQ(MmdSquaredSamples(fa, fb), 8.0f);
}

TEST(MmdTest, PairwiseRegularizerValue) {
  // features mean = (1, 1); targets (0,0) and (2,2) -> mean distance 2.
  Variable features(Tensor(Shape{2, 2}, {0, 0, 2, 2}), true);
  std::vector<Tensor> targets{Tensor(Shape{2}), Tensor(Shape{2}, {2, 2})};
  Variable r = PairwiseMmdRegularizer(features, targets);
  EXPECT_FLOAT_EQ(r.value().ToScalar(), 2.0f);
}

TEST(MmdTest, PairwiseAndAveragedGradientsMatch) {
  // Core identity of Sec. IV-C: grad of (1/(N-1)) sum_j ||v - δ_j||^2
  // w.r.t. the features equals grad of ||v - mean_j δ_j||^2 up to the
  // constant offset in value.
  Rng rng(1);
  Tensor base = Tensor::Normal(Shape{5, 3}, 0, 1, &rng);
  std::vector<Tensor> targets;
  for (int j = 0; j < 4; ++j) {
    targets.push_back(Tensor::Normal(Shape{3}, 0, 1, &rng));
  }
  Variable fa(base, true);
  PairwiseMmdRegularizer(fa, targets).Backward();
  Variable fb(base, true);
  AveragedMmdRegularizer(fb, MeanDelta(targets)).Backward();
  EXPECT_TRUE(AllClose(fa.grad(), fb.grad(), 1e-5f));
}

TEST(MmdTest, RegularizerGradcheck) {
  Rng rng(2);
  Variable features(Tensor::Normal(Shape{4, 3}, 0, 1, &rng), true);
  std::vector<Tensor> targets{Tensor::Normal(Shape{3}, 0, 1, &rng),
                              Tensor::Normal(Shape{3}, 0, 1, &rng)};
  auto loss = [&] { return PairwiseMmdRegularizer(features, targets); };
  EXPECT_LT(MaxGradCheckError(loss, {&features}), 5e-2);
}

TEST(MmdTest, LeaveOneOutMean) {
  std::vector<Tensor> deltas{Tensor(Shape{1}, {1.0f}), Tensor(Shape{1}, {2.0f}),
                             Tensor(Shape{1}, {6.0f})};
  EXPECT_FLOAT_EQ(LeaveOneOutMeanDelta(deltas, 0).at(0), 4.0f);
  EXPECT_FLOAT_EQ(LeaveOneOutMeanDelta(deltas, 2).at(0), 1.5f);
  EXPECT_FLOAT_EQ(MeanDelta(deltas).at(0), 3.0f);
}

TEST(DeltaMapStoreTest, UpdateAndQuery) {
  DeltaMapStore store(3, 4);
  EXPECT_EQ(store.num_clients(), 3);
  EXPECT_EQ(store.MapBytes(), 16);
  EXPECT_EQ(store.BroadcastBytesPairwise(), 32);
  EXPECT_EQ(store.BroadcastBytesAveraged(), 16);
  store.Update(1, Tensor(Shape{4}, {1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(store.Get(1).at(0), 1.0f);
  // LOO mean of client 0 = mean(maps 1, 2) = (1+0)/2.
  EXPECT_FLOAT_EQ(store.LeaveOneOutMean(0).at(0), 0.5f);
  EXPECT_EQ(store.AllExcept(1).size(), 2u);
}

TEST(DpNoiseTest, ZeroSigmaIsNoop) {
  Tensor delta(Shape{3}, {1, 2, 3});
  Tensor copy = delta;
  Rng rng(1);
  ApplyDpNoise(DpNoiseConfig{0.0, 1.0, 10}, &delta, &rng);
  EXPECT_TRUE(AllClose(delta, copy, 0.0f));
}

TEST(DpNoiseTest, ClipsToNormBound) {
  Tensor delta(Shape{2}, {30, 40});  // norm 50
  Rng rng(2);
  DpNoiseConfig config{1e-9, 5.0, 1000000};  // negligible noise
  ApplyDpNoise(config, &delta, &rng);
  EXPECT_NEAR(std::sqrt(delta.SquaredNorm()), 5.0, 1e-3);
  EXPECT_NEAR(delta.at(0) / delta.at(1), 0.75, 1e-3);
}

TEST(DpNoiseTest, NoiseScalesWithSigma) {
  Rng rng(3);
  double small = 0.0, large = 0.0;
  for (int trial = 0; trial < 30; ++trial) {
    Tensor a(Shape{8});
    ApplyDpNoise(DpNoiseConfig{1.0, 1.0, 1}, &a, &rng);
    small += a.SquaredNorm();
    Tensor b(Shape{8});
    ApplyDpNoise(DpNoiseConfig{10.0, 1.0, 1}, &b, &rng);
    large += b.SquaredNorm();
  }
  EXPECT_GT(large, 10.0 * small);
}

// ---- rFedAvg / rFedAvg+ behavior on a real (small) task ----

struct CoreFixture {
  CoreFixture()
      : rng(11),
        data(GenerateImageData(MnistLikeProfile(), 600, 200, &rng)),
        split(SimilarityPartition(data.train, 4, 0.0, &rng)) {
    for (auto& idx : split.client_indices) views.push_back(ClientView{idx, {}});
    CnnConfig config;
    config.conv1_channels = 4;
    config.conv2_channels = 8;
    config.feature_dim = 16;
    factory = MakeCnnFactory(config);
  }
  FlConfig Config() const {
    FlConfig config;
    config.local_steps = 3;
    config.batch_size = 16;
    config.lr = 0.08;
    config.seed = 3;
    config.max_examples_per_pass = 128;
    return config;
  }
  Rng rng;
  SyntheticImageData data;
  ClientSplit split;
  std::vector<ClientView> views;
  ModelFactory factory;
};

TEST(RFedAvgTest, LearnsAboveChance) {
  CoreFixture fx;
  RegularizerOptions reg;
  reg.lambda = 1e-3;
  RFedAvg algo(fx.Config(), reg, &fx.data.train, fx.views, fx.factory);
  TrainerOptions options;
  options.eval_max_examples = 200;
  FederatedTrainer trainer(&algo, &fx.data.test, options);
  const double before = trainer.EvaluateGlobal();
  RunHistory history = trainer.Run(8);
  EXPECT_GT(history.FinalAccuracy(), before + 0.2);
}

TEST(RFedAvgTest, ZeroLambdaMatchesFedAvg) {
  CoreFixture fx;
  RegularizerOptions reg;
  reg.lambda = 0.0;
  RFedAvg regd(fx.Config(), reg, &fx.data.train, fx.views, fx.factory);
  FedAvg plain(fx.Config(), &fx.data.train, fx.views, fx.factory);
  regd.RunRound(0);
  plain.RunRound(0);
  EXPECT_TRUE(AllClose(regd.global_state(), plain.global_state(), 1e-6f));
}

TEST(RFedAvgTest, DeltaStoreUpdatesAfterRound) {
  CoreFixture fx;
  RegularizerOptions reg;
  reg.lambda = 1e-3;
  RFedAvg algo(fx.Config(), reg, &fx.data.train, fx.views, fx.factory);
  // Initially all maps zero.
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(algo.delta_store().Get(k).MaxAbs(), 0.0f);
  }
  algo.RunRound(0);
  for (int k = 0; k < 4; ++k) {
    EXPECT_GT(algo.delta_store().Get(k).MaxAbs(), 0.0f);
  }
}

TEST(RFedAvgDeathTest, InflatedContextTargetCountAbortsByName) {
  // A JOB's context blob comes off the socket: a map-target count past
  // the N - 1 other clients must be refused before it sizes anything.
  CoreFixture fx;
  RegularizerOptions reg;
  reg.lambda = 1e-3;
  RFedAvg algo(fx.Config(), reg, &fx.data.train, fx.views, fx.factory);
  std::vector<uint8_t> blob;
  CheckpointWriter writer(&blob);
  writer.WriteBool(true);
  writer.WriteU32(0xffffffffu);
  EXPECT_DEATH(algo.ApplyTrainContext(0, 0, blob),
               "rFedAvg context decoder: 4294967295 map targets for 4 "
               "clients");
  blob.clear();
  writer.WriteBool(true);
  writer.WriteU32(4);
  EXPECT_DEATH(algo.ApplyTrainContext(0, 0, blob),
               "rFedAvg context decoder: 4 map targets");
}

TEST(RFedAvgTest, CommunicationScalesWithClients) {
  CoreFixture fx;
  RegularizerOptions reg;
  reg.lambda = 1e-3;
  RFedAvg pairwise(fx.Config(), reg, &fx.data.train, fx.views, fx.factory);
  RFedAvgPlus averaged(fx.Config(), reg, &fx.data.train, fx.views, fx.factory);
  FedAvg plain(fx.Config(), &fx.data.train, fx.views, fx.factory);
  pairwise.RunRound(0);
  averaged.RunRound(0);
  plain.RunRound(0);
  const int64_t base = plain.comm().round_bytes();
  const int64_t map_bytes = pairwise.delta_store().MapBytes();
  const int n = 4;
  // rFedAvg: base + per-client (N-1) map download + 1 map upload.
  EXPECT_EQ(pairwise.comm().round_bytes(),
            base + n * ((n - 1) * map_bytes + map_bytes));
  // rFedAvg+: base + per-client 1 map down + 1 map up + second model sync.
  Rng init(1);
  auto model = fx.factory(&init);
  const int64_t model_bytes = StateBytes(model->Parameters());
  EXPECT_EQ(averaged.comm().round_bytes(),
            base + n * (2 * map_bytes + model_bytes));
  // The paper's Table III ratio: rFedAvg's map traffic is (N-1)x larger.
  EXPECT_EQ(pairwise.delta_store().BroadcastBytesPairwise(),
            (n - 1) * averaged.delta_store().BroadcastBytesAveraged());
}

TEST(RFedAvgPlusTest, LearnsAboveChance) {
  CoreFixture fx;
  RegularizerOptions reg;
  reg.lambda = 1e-3;
  RFedAvgPlus algo(fx.Config(), reg, &fx.data.train, fx.views, fx.factory);
  TrainerOptions options;
  options.eval_max_examples = 200;
  FederatedTrainer trainer(&algo, &fx.data.test, options);
  const double before = trainer.EvaluateGlobal();
  RunHistory history = trainer.Run(8);
  EXPECT_GT(history.FinalAccuracy(), before + 0.2);
}

TEST(RFedAvgPlusTest, RegularizationShrinksFeatureDiscrepancy) {
  // After training with the regularizer the mean pairwise MMD between
  // client maps should be below the unregularized run's.
  CoreFixture fx;
  RegularizerOptions strong;
  strong.lambda = 5e-2;
  RegularizerOptions off;
  off.lambda = 0.0;
  RFedAvg with(fx.Config(), strong, &fx.data.train, fx.views, fx.factory);
  RFedAvg without(fx.Config(), off, &fx.data.train, fx.views, fx.factory);
  for (int r = 0; r < 6; ++r) {
    with.RunRound(r);
    without.RunRound(r);
  }
  EXPECT_LT(with.MeanPairwiseMmd(), without.MeanPairwiseMmd());
}

TEST(RFedAvgPlusTest, DpNoiseKeepsTrainingAlive) {
  CoreFixture fx;
  RegularizerOptions reg;
  reg.lambda = 1e-3;
  reg.dp = DpNoiseConfig{1.0, 1.0, 32};
  RFedAvgPlus algo(fx.Config(), reg, &fx.data.train, fx.views, fx.factory);
  TrainerOptions options;
  options.eval_max_examples = 200;
  FederatedTrainer trainer(&algo, &fx.data.test, options);
  const double before = trainer.EvaluateGlobal();
  RunHistory history = trainer.Run(6);
  EXPECT_GT(history.FinalAccuracy(), before + 0.15);
}

TEST(RFedAvgTest, PartialParticipationWorks) {
  CoreFixture fx;
  FlConfig config = fx.Config();
  config.sample_ratio = 0.5;
  RegularizerOptions reg;
  reg.lambda = 1e-3;
  RFedAvgPlus algo(config, reg, &fx.data.train, fx.views, fx.factory);
  TrainerOptions options;
  options.eval_max_examples = 200;
  FederatedTrainer trainer(&algo, &fx.data.test, options);
  RunHistory history = trainer.Run(8);
  EXPECT_GT(history.FinalAccuracy(), 0.4);
}

// ---- Convergence theory harness (Theorems 1 and 2) ----

TEST(ConvexObjectiveTest, SolverSolvesKnownSystem) {
  Tensor a(Shape{2, 2}, {2, 0, 0, 4});
  Tensor b(Shape{2}, {2, 8});
  Tensor x = SolveLinearSystem(a, b);
  EXPECT_NEAR(x.at(0), 1.0f, 1e-5f);
  EXPECT_NEAR(x.at(1), 2.0f, 1e-5f);
}

TEST(ConvexObjectiveTest, SolverHandlesPivoting) {
  Tensor a(Shape{2, 2}, {0, 1, 1, 0});
  Tensor b(Shape{2}, {3, 7});
  Tensor x = SolveLinearSystem(a, b);
  EXPECT_NEAR(x.at(0), 7.0f, 1e-5f);
  EXPECT_NEAR(x.at(1), 3.0f, 1e-5f);
}

TEST(ConvexObjectiveTest, OptimumIsStationary) {
  ConvexProblemConfig config;
  config.dim = 6;
  config.num_clients = 5;
  ConvexFederatedProblem problem(config);
  const Tensor& w_star = problem.Optimum();
  const double f_star = problem.OptimalValue();
  // Perturbations in any coordinate must not decrease F.
  for (int64_t i = 0; i < w_star.size(); ++i) {
    Tensor w = w_star;
    w.at(i) += 0.01f;
    EXPECT_GE(problem.FullObjective(w), f_star - 1e-6);
    w.at(i) -= 0.02f;
    EXPECT_GE(problem.FullObjective(w), f_star - 1e-6);
  }
}

TEST(ConvexObjectiveTest, SmoothnessExceedsStrongConvexity) {
  ConvexFederatedProblem problem(ConvexProblemConfig{});
  EXPECT_GE(problem.Smoothness(), problem.StrongConvexity());
}

TEST(ConvexObjectiveTest, AllModesConvergeAtRateOneOverT) {
  ConvexProblemConfig config;
  config.grad_noise = 0.05;
  ConvexFederatedProblem problem(config);
  for (MapMode mode : {MapMode::kFresh, MapMode::kLocalDelayed,
                       MapMode::kGlobalDelayed}) {
    Rng rng(99);
    const auto gaps = problem.Run(mode, 300, 5, &rng);
    // Early error much larger than late error; late error small.
    EXPECT_LT(gaps.back(), 0.05) << static_cast<int>(mode);
    EXPECT_LT(gaps.back(), gaps[4] * 0.5) << static_cast<int>(mode);
    for (double g : gaps) ASSERT_TRUE(std::isfinite(g));
  }
}

TEST(ConvexObjectiveTest, DelayedMapsStillReachOptimum) {
  // The theory says delayed maps only inflate the constant, not the rate:
  // both delayed variants must get within noise range of F*.
  ConvexProblemConfig config;
  config.grad_noise = 0.0;  // exact gradients isolate the delay effect
  ConvexFederatedProblem problem(config);
  Rng rng(100);
  const auto local = problem.Run(MapMode::kLocalDelayed, 400, 5, &rng);
  const auto global = problem.Run(MapMode::kGlobalDelayed, 400, 5, &rng);
  EXPECT_LT(local.back(), 1e-3);
  EXPECT_LT(global.back(), 1e-3);
}

}  // namespace
}  // namespace rfed
