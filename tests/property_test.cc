// Parameterized property sweeps (TEST_P): each instantiation checks one
// invariant across a family of inputs rather than a single case.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/convex_objective.h"
#include "core/mmd.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "fl/fedavg.h"
#include "fl/model_state.h"
#include "nn/models.h"
#include "test_util.h"

namespace rfed {
namespace {

using ::rfed::testing::MaxGradCheckError;

// ---- Property: MatMul gradients are exact for arbitrary shapes ----

class MatMulShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapeTest, GradcheckHolds) {
  auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 100 + k * 10 + n));
  Variable a(Tensor::Normal(Shape{m, k}, 0, 1, &rng), true);
  Variable b(Tensor::Normal(Shape{k, n}, 0, 1, &rng), true);
  auto loss = [&] { return ag::Sum(ag::Tanh(ag::MatMul(a, b))); };
  EXPECT_LT(MaxGradCheckError(loss, {&a, &b}), 5e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulShapeTest,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 5, 3},
                      std::tuple{4, 1, 4}, std::tuple{3, 7, 2},
                      std::tuple{6, 2, 6}, std::tuple{2, 9, 1}));

// ---- Property: conv output shape formula holds across configs ----

class ConvShapeTest : public ::testing::TestWithParam<
                          std::tuple<int, int, int, int, int>> {};

TEST_P(ConvShapeTest, OutputShapeMatchesFormula) {
  auto [size, kernel, stride, pad, channels] = GetParam();
  Conv2dSpec spec{.in_channels = 1, .out_channels = channels,
                  .kernel = kernel, .stride = stride, .pad = pad};
  const int64_t expect = spec.OutDim(size);
  if (expect <= 0) GTEST_SKIP();
  Rng rng(1);
  Tensor x = Tensor::Normal(Shape{2, 1, size, size}, 0, 1, &rng);
  Tensor w = Tensor::Normal(Shape{channels, kernel * kernel}, 0, 0.2f, &rng);
  Tensor b(Shape{channels});
  Tensor y = ::rfed::testing::RefConv2dForward(x, w, b, spec);
  EXPECT_EQ(y.shape(), Shape({2, channels, expect, expect}));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConvShapeTest,
    ::testing::Values(std::tuple{8, 3, 1, 1, 2}, std::tuple{8, 5, 1, 2, 3},
                      std::tuple{12, 3, 2, 1, 1}, std::tuple{6, 3, 3, 0, 2},
                      std::tuple{10, 1, 1, 0, 4}));

// ---- Property: similarity partitioner skew is monotone in s ----

class PartitionSkewTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionSkewTest, SkewDecreasesAlongSimilarityLadder) {
  const int num_clients = GetParam();
  Rng gen(77);
  auto data = GenerateImageData(MnistLikeProfile(), 1500, 50, &gen);
  Rng rng(78);
  double last = 1e9;
  for (double s : {0.0, 0.25, 0.5, 1.0}) {
    const double skew =
        LabelSkew(data.train, SimilarityPartition(data.train, num_clients,
                                                  s, &rng));
    EXPECT_LE(skew, last + 0.05) << "similarity " << s;
    last = skew;
  }
}

INSTANTIATE_TEST_SUITE_P(ClientCounts, PartitionSkewTest,
                         ::testing::Values(5, 10, 20));

// ---- Property: flatten/load round-trips for every model config ----

class ModelStateRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(ModelStateRoundTripTest, RoundTripExact) {
  const int feature_dim = GetParam();
  Rng rng(static_cast<uint64_t>(feature_dim));
  CnnConfig config;
  config.feature_dim = feature_dim;
  CnnModel model(config, &rng);
  auto params = model.Parameters();
  Tensor flat = FlattenParameters(params);
  Tensor noise = Tensor::Normal(flat.shape(), 0, 1, &rng);
  LoadParameters(noise, params);
  EXPECT_TRUE(AllClose(FlattenParameters(params), noise, 0.0f));
  EXPECT_EQ(ParameterCount(params), flat.size());
}

INSTANTIATE_TEST_SUITE_P(FeatureDims, ModelStateRoundTripTest,
                         ::testing::Values(8, 32, 64, 128));

// ---- Property: pairwise vs averaged regularizer gradient identity ----

class RegularizerIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(RegularizerIdentityTest, GradientsAgreeForAnyTargetCount) {
  const int num_targets = GetParam();
  Rng rng(static_cast<uint64_t>(num_targets) + 500);
  Tensor base = Tensor::Normal(Shape{6, 5}, 0, 1, &rng);
  std::vector<Tensor> targets;
  for (int j = 0; j < num_targets; ++j) {
    targets.push_back(Tensor::Normal(Shape{5}, 0, 1, &rng));
  }
  Variable fa(base, true);
  PairwiseMmdRegularizer(fa, targets).Backward();
  Variable fb(base, true);
  AveragedMmdRegularizer(fb, MeanDelta(targets)).Backward();
  EXPECT_TRUE(AllClose(fa.grad(), fb.grad(), 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(TargetCounts, RegularizerIdentityTest,
                         ::testing::Values(1, 2, 3, 7, 19));

// ---- Property: aggregation preserves a shared fixed point ----

class AggregationFixedPointTest : public ::testing::TestWithParam<double> {};

TEST_P(AggregationFixedPointTest, ZeroLrIsFixedPoint) {
  const double sample_ratio = GetParam();
  Rng rng(91);
  auto data = GenerateImageData(MnistLikeProfile(), 300, 50, &rng);
  auto split = SimilarityPartition(data.train, 5, 0.5, &rng);
  std::vector<ClientView> views;
  for (auto& idx : split.client_indices) views.push_back({idx, {}});
  CnnConfig mc;
  mc.conv1_channels = 2;
  mc.conv2_channels = 4;
  mc.feature_dim = 8;
  FlConfig config;
  config.local_steps = 2;
  config.lr = 0.0;
  config.sample_ratio = sample_ratio;
  config.seed = 13;
  FedAvg algo(config, &data.train, views, MakeCnnFactory(mc));
  const Tensor before = algo.global_state();
  for (int r = 0; r < 3; ++r) algo.RunRound(r);
  EXPECT_TRUE(AllClose(algo.global_state(), before, 1e-6f));
}

INSTANTIATE_TEST_SUITE_P(SampleRatios, AggregationFixedPointTest,
                         ::testing::Values(0.2, 0.5, 1.0));

// ---- Property: convex harness converges for every (E, λ) combo ----

class ConvexSweepTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(ConvexSweepTest, DelayedVariantsConverge) {
  auto [local_steps, lambda] = GetParam();
  ConvexProblemConfig config;
  config.lambda = lambda;
  config.grad_noise = 0.0;
  config.dim = 8;
  config.num_clients = 6;
  ConvexFederatedProblem problem(config);
  for (MapMode mode : {MapMode::kLocalDelayed, MapMode::kGlobalDelayed}) {
    Rng rng(55);
    const auto gaps = problem.Run(mode, 250, local_steps, &rng);
    EXPECT_LT(gaps.back(), 5e-3)
        << "E=" << local_steps << " lambda=" << lambda
        << " mode=" << static_cast<int>(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvexSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 5, 10),
                       ::testing::Values(0.0, 0.1, 0.5)));

// ---- Property: O(1/T) — the error times T stays bounded ----

class RateTest : public ::testing::TestWithParam<int> {};

TEST_P(RateTest, ErrorTimesRoundsIsBounded) {
  const int local_steps = GetParam();
  ConvexProblemConfig config;
  config.grad_noise = 0.1;
  ConvexFederatedProblem problem(config);
  Rng rng(66);
  const auto gaps = problem.Run(MapMode::kGlobalDelayed, 400, local_steps,
                                &rng);
  // t * gap(t) at t = 100 and t = 400 must stay within a constant factor,
  // i.e. the decay is ~1/t, not slower.
  const double early = 100.0 * gaps[99];
  const double late = 400.0 * gaps[399];
  EXPECT_LT(late, 10.0 * early + 1.0);
}

INSTANTIATE_TEST_SUITE_P(LocalSteps, RateTest, ::testing::Values(2, 5));

}  // namespace
}  // namespace rfed
