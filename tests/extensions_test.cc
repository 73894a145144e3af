// Tests for the extension subsystems built on top of the paper's core:
// secure aggregation, client selection, FedNova,
// compression-in-the-loop, personalization, layer norm / dropout, flags.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/personalization.h"
#include "core/rfedavg.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "fl/fedavg.h"
#include "fl/fednova.h"
#include "fl/secure_agg.h"
#include "fl/selection.h"
#include "fl/trainer.h"
#include "nn/norm.h"
#include "test_util.h"
#include "util/flags.h"

namespace rfed {
namespace {

using ::rfed::testing::MaxGradCheckError;

// ---- Secure aggregation ----

TEST(SecureAggTest, MasksCancelInSum) {
  const int64_t dim = 50;
  SecureAggregator agg(dim, /*session_seed=*/7);
  Rng rng(2);
  std::vector<int> cohort{0, 1, 2, 3};
  std::vector<Tensor> updates, masked;
  Tensor expected(Shape{dim});
  for (int k : cohort) {
    updates.push_back(Tensor::Normal(Shape{dim}, 0, 1, &rng));
    expected.AddInPlace(updates.back());
    masked.push_back(agg.Mask(k, updates.back(), cohort));
  }
  Tensor sum = SecureAggregator::SumMasked(masked);
  EXPECT_TRUE(AllClose(sum, expected, 1e-3f));
}

TEST(SecureAggTest, IndividualUploadsAreMasked) {
  const int64_t dim = 50;
  SecureAggregator agg(dim, 7, /*mask_scale=*/10.0);
  Rng rng(3);
  Tensor update = Tensor::Normal(Shape{dim}, 0, 0.1f, &rng);
  Tensor masked = agg.Mask(0, update, {0, 1, 2});
  // The masked upload must look nothing like the raw update: the mask
  // energy dominates by construction.
  Tensor diff = masked;
  diff.SubInPlace(update);
  EXPECT_GT(diff.SquaredNorm(), 100.0f * update.SquaredNorm());
}

TEST(SecureAggTest, SingletonCohortIsUnmasked) {
  SecureAggregator agg(4, 7);
  Tensor update(Shape{4}, {1, 2, 3, 4});
  EXPECT_TRUE(AllClose(agg.Mask(5, update, {5}), update, 0.0f));
}

TEST(SecureAggTest, WorksWithArbitraryCohortOrder) {
  const int64_t dim = 10;
  SecureAggregator agg(dim, 11);
  Rng rng(4);
  std::vector<int> cohort{9, 2, 5};
  std::vector<Tensor> masked;
  Tensor expected(Shape{dim});
  for (int k : cohort) {
    Tensor update = Tensor::Normal(Shape{dim}, 0, 1, &rng);
    expected.AddInPlace(update);
    masked.push_back(agg.Mask(k, update, cohort));
  }
  EXPECT_TRUE(AllClose(SecureAggregator::SumMasked(masked), expected, 1e-3f));
}

// ---- Client selection ----

TEST(SelectionTest, UniformSelectsDistinct) {
  Rng rng(5);
  const auto cohort = UniformSelection(20, 8, &rng);
  EXPECT_EQ(cohort.size(), 8u);
  std::set<int> unique(cohort.begin(), cohort.end());
  EXPECT_EQ(unique.size(), 8u);
}

TEST(SelectionTest, LossProportionalPrefersHighLoss) {
  Rng rng(6);
  // Client 0 has 100x the loss of the others; it should appear in almost
  // every 1-of-10 draw.
  std::vector<double> losses(10, 0.01);
  losses[0] = 1.0;
  int hits = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const auto cohort = LossProportionalSelection(losses, 1, &rng);
    if (cohort[0] == 0) ++hits;
  }
  EXPECT_GT(hits, trials / 2);
}

TEST(SelectionTest, LossProportionalHandlesUnknownLosses) {
  Rng rng(7);
  std::vector<double> losses(6, std::nan(""));
  const auto cohort = LossProportionalSelection(losses, 3, &rng);
  EXPECT_EQ(cohort.size(), 3u);
  std::set<int> unique(cohort.begin(), cohort.end());
  EXPECT_EQ(unique.size(), 3u);
}

// ---- Shared fixture for algorithm-level tests ----

struct ExtFixture {
  ExtFixture()
      : rng(31),
        data(GenerateImageData(MnistLikeProfile(), 600, 200, &rng)),
        split(SimilarityPartition(data.train, 5, 0.0, &rng)),
        test_split(SimilarityPartition(data.test, 5, 0.0, &rng)) {
    for (int k = 0; k < 5; ++k) {
      views.push_back(ClientView{split.client_indices[k],
                                 test_split.client_indices[k]});
    }
    CnnConfig mc;
    mc.conv1_channels = 4;
    mc.conv2_channels = 8;
    mc.feature_dim = 16;
    factory = MakeCnnFactory(mc);
  }
  FlConfig Config() const {
    FlConfig config;
    config.local_steps = 3;
    config.batch_size = 16;
    config.lr = 0.08;
    config.seed = 3;
    return config;
  }
  Rng rng;
  SyntheticImageData data;
  ClientSplit split;
  ClientSplit test_split;
  std::vector<ClientView> views;
  ModelFactory factory;
};

// ---- FedNova ----

TEST(FedNovaTest, LocalStepsScaleWithData) {
  ExtFixture fx;
  FedNova algo(fx.Config(), /*max_local_steps=*/50, &fx.data.train, fx.views,
               fx.factory);
  TrainerOptions options;
  options.eval_max_examples = 200;
  FederatedTrainer trainer(&algo, &fx.data.test, options);
  const double before = trainer.EvaluateGlobal();
  RunHistory history = trainer.Run(6);
  EXPECT_GT(history.FinalAccuracy(), before + 0.2);
}

TEST(FedNovaTest, StaysFiniteUnderQuantitySkew) {
  // Heavily unbalanced split: client 0 gets ~70% of the data.
  ExtFixture fx;
  std::vector<ClientView> skewed(3);
  for (int64_t i = 0; i < fx.data.train.size(); ++i) {
    const int owner = i % 10 < 7 ? 0 : (i % 10 == 7 ? 1 : 2);
    skewed[static_cast<size_t>(owner)].train_indices.push_back(
        static_cast<int>(i));
  }
  FedNova algo(fx.Config(), 20, &fx.data.train, skewed, fx.factory);
  for (int r = 0; r < 3; ++r) algo.RunRound(r);
  for (int64_t i = 0; i < algo.global_state().size(); ++i) {
    ASSERT_TRUE(std::isfinite(algo.global_state().at(i)));
  }
}

// ---- Compression in the training loop ----

TEST(CompressedTrainingTest, QuantizedUploadsStillLearn) {
  ExtFixture fx;
  FlConfig config = fx.Config();
  config.upload_compressor = "q8";
  FedAvg algo(config, &fx.data.train, fx.views, fx.factory);
  TrainerOptions options;
  options.eval_max_examples = 200;
  FederatedTrainer trainer(&algo, &fx.data.test, options);
  const double before = trainer.EvaluateGlobal();
  RunHistory history = trainer.Run(8);
  EXPECT_GT(history.FinalAccuracy(), before + 0.2);
}

TEST(CompressedTrainingTest, CompressionReducesUploadBytes) {
  ExtFixture fx;
  FlConfig plain_config = fx.Config();
  FlConfig compressed_config = fx.Config();
  compressed_config.upload_compressor = "topk1";
  FedAvg plain(plain_config, &fx.data.train, fx.views, fx.factory);
  FedAvg compressed(compressed_config, &fx.data.train, fx.views, fx.factory);
  plain.RunRound(0);
  compressed.RunRound(0);
  EXPECT_LT(compressed.comm().total_up_bytes(),
            plain.comm().total_up_bytes() / 5);
  // Downloads unchanged.
  EXPECT_EQ(compressed.comm().total_down_bytes(),
            plain.comm().total_down_bytes());
}

TEST(CompressedTrainingTest, WorksWithRegularizer) {
  ExtFixture fx;
  FlConfig config = fx.Config();
  config.upload_compressor = "q8";
  RegularizerOptions reg;
  reg.lambda = 1e-3;
  RFedAvgPlus algo(config, reg, &fx.data.train, fx.views, fx.factory);
  TrainerOptions options;
  options.eval_max_examples = 200;
  FederatedTrainer trainer(&algo, &fx.data.test, options);
  RunHistory history = trainer.Run(8);
  EXPECT_GT(history.FinalAccuracy(), 0.4);
}

// ---- Adaptive selection in the loop ----

TEST(AdaptiveSelectionTest, LossSelectionTrains) {
  ExtFixture fx;
  FlConfig config = fx.Config();
  config.sample_ratio = 0.4;
  config.client_selection = "loss";
  FedAvg algo(config, &fx.data.train, fx.views, fx.factory);
  TrainerOptions options;
  options.eval_max_examples = 200;
  FederatedTrainer trainer(&algo, &fx.data.test, options);
  RunHistory history = trainer.Run(14);
  EXPECT_GT(history.BestAccuracy(), 0.4);
}

// ---- Personalization ----

TEST(PersonalizationTest, FineTuningImprovesLocalAccuracy) {
  ExtFixture fx;
  FedAvg algo(fx.Config(), &fx.data.train, fx.views, fx.factory);
  TrainerOptions options;
  options.eval_max_examples = 200;
  FederatedTrainer trainer(&algo, &fx.data.test, options);
  trainer.Run(6);
  PersonalizationOptions popt;
  popt.fine_tune_steps = 15;
  popt.lr = 0.05;
  const Tensor global_before = algo.global_state();
  PersonalizationReport report = PersonalizeAndEvaluate(
      &algo, fx.data.train, fx.data.test, fx.views, popt);
  // On a label-skewed split, fitting the local label distribution must
  // help on the local (equally skewed) test slice.
  EXPECT_GT(report.MeanPersonalized(), report.MeanGlobal());
  // The algorithm's global state is untouched.
  EXPECT_TRUE(AllClose(algo.global_state(), global_before, 0.0f));
}

TEST(PersonalizationTest, ClientsWithoutTestSlicesGetNan) {
  ExtFixture fx;
  std::vector<ClientView> views = fx.views;
  views[2].test_indices.clear();
  FedAvg algo(fx.Config(), &fx.data.train, views, fx.factory);
  PersonalizationOptions popt;
  popt.fine_tune_steps = 1;
  PersonalizationReport report = PersonalizeAndEvaluate(
      &algo, fx.data.train, fx.data.test, views, popt);
  EXPECT_TRUE(std::isnan(report.global_accuracy[2]));
  EXPECT_FALSE(std::isnan(report.global_accuracy[0]));
}

// ---- LayerNorm / Dropout ----

TEST(LayerNormTest, NormalizesRows) {
  LayerNorm norm(8);
  Rng rng(8);
  Variable x(Tensor::Normal(Shape{4, 8}, 3.0f, 2.0f, &rng));
  Tensor y = norm.Forward(x).value();
  for (int64_t r = 0; r < 4; ++r) {
    double mean = 0.0, var = 0.0;
    for (int64_t c = 0; c < 8; ++c) mean += y.at2(r, c);
    mean /= 8.0;
    for (int64_t c = 0; c < 8; ++c) {
      var += (y.at2(r, c) - mean) * (y.at2(r, c) - mean);
    }
    var /= 8.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);  // default gamma=1, beta=0
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(LayerNormTest, GradcheckThroughNorm) {
  LayerNorm norm(5);
  Rng rng(9);
  Variable x(Tensor::Normal(Shape{3, 5}, 0, 1, &rng), true);
  auto loss = [&] { return ag::Sum(ag::Tanh(norm.Forward(x))); };
  std::vector<Variable*> leaves = norm.Parameters();
  leaves.push_back(&x);
  EXPECT_LT(MaxGradCheckError(loss, leaves), 5e-2);
}

TEST(DropoutTest, EvalModeIsIdentity) {
  Rng rng(10);
  Variable x(Tensor::Normal(Shape{4, 4}, 0, 1, &rng));
  Variable y = Dropout(x, 0.5, /*train=*/false, &rng);
  EXPECT_TRUE(AllClose(y.value(), x.value(), 0.0f));
}

TEST(DropoutTest, TrainModePreservesExpectation) {
  Rng rng(11);
  Variable x(Tensor::Full(Shape{10000}, 1.0f));
  Variable y = Dropout(x, 0.3, /*train=*/true, &rng);
  EXPECT_NEAR(y.value().Mean(), 1.0f, 0.05f);
  // Some elements are exactly zero.
  int64_t zeros = 0;
  for (int64_t i = 0; i < y.value().size(); ++i) {
    if (y.value().at(i) == 0.0f) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.3, 0.03);
}

// ---- FlagParser ----

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=3", "--name", "hello", "--verbose",
                        "--rate=0.5"};
  FlagParser flags(6, argv);
  EXPECT_EQ(flags.GetInt("alpha", 0), 3);
  EXPECT_EQ(flags.GetString("name", ""), "hello");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 0.5);
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
  EXPECT_TRUE(flags.Has("alpha"));
  EXPECT_FALSE(flags.Has("beta"));
  EXPECT_EQ(flags.Keys().size(), 4u);
}

}  // namespace
}  // namespace rfed
