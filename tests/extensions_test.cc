// Tests for the extension subsystems built on top of the paper's core:
// client selection, FedNova, compression-in-the-loop, personalization,
// flags.

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/personalization.h"
#include "core/rfedavg.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "fl/fedavg.h"
#include "fl/fednova.h"
#include "fl/selection.h"
#include "fl/trainer.h"
#include "test_util.h"
#include "util/flags.h"

namespace rfed {
namespace {

using ::rfed::testing::MaxGradCheckError;

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

TEST(CompressedTrainingTest, ServerAggregatesTheCompressedUploads) {
  // Each top-1% upload reaches the server as k = 1% of the coordinates,
  // so one full-cohort round moves at most 5k coordinates of the global
  // state (the others stay within the mean's rounding); the clients'
  // raw trained states would move nearly every coordinate.
  ExtFixture fx;
  FlConfig config = fx.Config();
  config.upload_compressor = "topk1";
  FedAvg algo(config, &fx.data.train, fx.views, fx.factory);
  const Tensor before = algo.global_state();
  algo.RunRound(0);
  const Tensor& after = algo.global_state();
  const int64_t k = std::llround(0.01 * static_cast<double>(before.size()));
  int64_t moved = 0;
  for (int64_t i = 0; i < before.size(); ++i) {
    const float b = before.at(i);
    if (std::fabs(after.at(i) - b) > 1e-5f * std::max(1.0f, std::fabs(b))) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
  EXPECT_LE(moved, 5 * k);
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
