// Adversarial-client and robust-aggregation suite: the seeded fault
// models of fl/adversary.h, the aggregation rules and validation screen
// of fl/robust_agg.h, and their end-to-end behavior through the training
// loop (quarantine metrics, per-client rejection reputation, and the
// clean-run bit-identity guarantee of the defaults).

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "data/partition.h"
#include "data/synthetic_images.h"
#include "fl/adversary.h"
#include "fl/fedavg.h"
#include "fl/robust_agg.h"
#include "fl/scaffold.h"
#include "fl/selection.h"
#include "fl/trainer.h"
#include "obs/metrics.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace rfed {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// ---- robust_agg unit tests ----

TEST(RobustAggTest, AllFiniteDetectsNanAndInf) {
  EXPECT_TRUE(AllFinite(Tensor(Shape{3}, {1.0f, -2.0f, 0.0f})));
  EXPECT_FALSE(AllFinite(Tensor(Shape{3}, {1.0f, kNan, 0.0f})));
  EXPECT_FALSE(AllFinite(Tensor(Shape{3}, {1.0f, -2.0f, kInf})));
  EXPECT_FALSE(AllFinite(Tensor(Shape{2}, {-kInf, 0.0f})));
  // Longer than the check's blocks: a bad value anywhere (in a block or
  // in the tail) is found, and the largest and smallest finite values,
  // -0 and denormals pass.
  Tensor t(Shape{300});
  for (int64_t i = 0; i < t.size(); ++i) t.at(i) = 0.01f * static_cast<float>(i);
  t.at(7) = std::numeric_limits<float>::max();
  t.at(8) = -std::numeric_limits<float>::max();
  t.at(9) = std::numeric_limits<float>::denorm_min();
  t.at(10) = -0.0f;
  EXPECT_TRUE(AllFinite(t));
  for (int64_t i = 0; i < t.size(); ++i) {
    for (float bad : {kNan, kInf, -kInf}) {
      Tensor u = t;
      u.at(i) = bad;
      EXPECT_FALSE(AllFinite(u)) << "value " << bad << " at " << i;
    }
  }
}

TEST(RobustAggTest, TrimmedMeanDropsOutliers) {
  std::vector<Tensor> values;
  for (float v : {0.0f, 1.0f, 2.0f, 3.0f, 1000.0f}) {
    values.push_back(Tensor(Shape{1}, {v}));
  }
  std::vector<double> weights(5, 1.0);
  // floor(0.2 * 5) = 1 off each end: mean of {1, 2, 3}.
  Tensor out = CoordinateTrimmedMean(values, weights, 0.2);
  EXPECT_FLOAT_EQ(out.at(0), 2.0f);
}

TEST(RobustAggTest, TrimmedMeanIsPerCoordinate) {
  // The outlier owner differs per coordinate; the trim must sort each
  // coordinate independently, not drop whole updates.
  std::vector<Tensor> values = {
      Tensor(Shape{2}, {900.0f, 1.0f}),
      Tensor(Shape{2}, {1.0f, 2.0f}),
      Tensor(Shape{2}, {2.0f, 3.0f}),
      Tensor(Shape{2}, {3.0f, 900.0f}),
      Tensor(Shape{2}, {-900.0f, 0.0f}),
  };
  std::vector<double> weights(5, 1.0);
  Tensor out = CoordinateTrimmedMean(values, weights, 0.2);
  EXPECT_FLOAT_EQ(out.at(0), 2.0f);  // mean of {1, 2, 3}
  EXPECT_FLOAT_EQ(out.at(1), 2.0f);  // mean of {1, 2, 3}
}

TEST(RobustAggTest, TrimmedMeanZeroWeightFallsBackToUnweighted) {
  std::vector<Tensor> values = {Tensor(Shape{1}, {1.0f}),
                                Tensor(Shape{1}, {2.0f}),
                                Tensor(Shape{1}, {6.0f})};
  std::vector<double> weights(3, 0.0);
  Tensor out = CoordinateTrimmedMean(values, weights, 0.0);
  EXPECT_FLOAT_EQ(out.at(0), 3.0f);
}

TEST(RobustAggTest, CoordinateMedianRespectsWeights) {
  std::vector<Tensor> values = {Tensor(Shape{1}, {0.0f}),
                                Tensor(Shape{1}, {10.0f}),
                                Tensor(Shape{1}, {20.0f})};
  // Unweighted: the middle value.
  Tensor unweighted = CoordinateMedian(values, {1.0, 1.0, 1.0});
  EXPECT_FLOAT_EQ(unweighted.at(0), 10.0f);
  // A dominant weight pulls the median onto its value.
  Tensor weighted = CoordinateMedian(values, {1.0, 1.0, 10.0});
  EXPECT_FLOAT_EQ(weighted.at(0), 20.0f);
}

TEST(RobustAggTest, NormBoundedMeanClipsTheOutlier) {
  Tensor reference(Shape{2});  // zeros
  std::vector<Tensor> values = {Tensor(Shape{2}, {1.0f, 0.0f}),
                                Tensor(Shape{2}, {0.0f, 1.0f}),
                                Tensor(Shape{2}, {100.0f, 0.0f})};
  std::vector<double> weights(3, 1.0);
  NormClipReport report;
  Tensor out = NormBoundedMean(reference, values, weights, 3.0, &report);
  EXPECT_EQ(report.clipped, 1);
  EXPECT_DOUBLE_EQ(report.median_norm, 1.0);
  EXPECT_DOUBLE_EQ(report.bound, 3.0);
  ASSERT_EQ(report.norms.size(), 3u);
  EXPECT_DOUBLE_EQ(report.norms[2], 100.0);
  // (1,0)/3 + (0,1)/3 + clipped (3,0)/3.
  EXPECT_NEAR(out.at(0), 4.0 / 3.0, 1e-6);
  EXPECT_NEAR(out.at(1), 1.0 / 3.0, 1e-6);
}

// ---- adversary unit tests ----

TEST(AdversaryTest, SelectionIsSeededAndSized) {
  AdversaryOptions options;
  options.mode = "sign_flip";
  options.fraction = 0.2;
  Adversary a(options, 99, 10);
  Adversary b(options, 99, 10);
  EXPECT_EQ(a.num_adversarial(), 2);
  int count = 0;
  for (int k = 0; k < 10; ++k) {
    EXPECT_EQ(a.IsAdversarial(k), b.IsAdversarial(k)) << k;
    if (a.IsAdversarial(k)) ++count;
  }
  EXPECT_EQ(count, 2);
  // A different seed lineage picks a different set eventually; at the
  // very least the adversary count stays pinned.
  Adversary c(options, 100, 10);
  EXPECT_EQ(c.num_adversarial(), 2);
}

TEST(AdversaryTest, DisabledModeCorruptsNothing) {
  Adversary off(AdversaryOptions{}, 7, 4);
  EXPECT_EQ(off.num_adversarial(), 0);
  EXPECT_FALSE(off.CorruptsUpdates());
  EXPECT_FALSE(off.CorruptsLabels());
  Tensor trained(Shape{2}, {1.0f, 2.0f});
  Tensor out = off.CorruptUpdate(0, 0, Tensor(Shape{2}), trained);
  EXPECT_FLOAT_EQ(out.at(0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(1), 2.0f);
}

TEST(AdversaryTest, SignFlipNegatesTheDelta) {
  AdversaryOptions options;
  options.mode = "sign_flip";
  options.fraction = 1.0;  // everyone misbehaves
  Adversary adv(options, 5, 3);
  Tensor global(Shape{2}, {1.0f, 2.0f});
  Tensor trained(Shape{2}, {2.0f, 4.0f});
  Tensor out = adv.CorruptUpdate(1, 0, global, trained);
  // 2 w_t - y_k.
  EXPECT_FLOAT_EQ(out.at(0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(1), 0.0f);
}

TEST(AdversaryTest, NanEmitterIsNonFiniteEverywhere) {
  AdversaryOptions options;
  options.mode = "nan";
  options.fraction = 1.0;
  Adversary adv(options, 5, 2);
  Tensor trained(Shape{4}, {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor out = adv.CorruptUpdate(0, 3, Tensor(Shape{4}), trained);
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_FALSE(std::isfinite(out.at(i))) << i;
  }
}

TEST(AdversaryTest, NoiseIsKeyedPerClientAndRound) {
  AdversaryOptions options;
  options.mode = "noise";
  options.fraction = 1.0;
  options.noise_sigma = 0.5;
  Adversary adv(options, 11, 2);
  Tensor global(Shape{3});
  Tensor trained(Shape{3}, {1.0f, 2.0f, 3.0f});
  Tensor first = adv.CorruptUpdate(1, 4, global, trained);
  Tensor again = adv.CorruptUpdate(1, 4, global, trained);
  Tensor other_round = adv.CorruptUpdate(1, 5, global, trained);
  bool differs = false;
  for (int64_t i = 0; i < first.size(); ++i) {
    EXPECT_FLOAT_EQ(first.at(i), again.at(i)) << i;  // replayable
    EXPECT_NE(first.at(i), trained.at(i)) << i;      // actually perturbs
    if (first.at(i) != other_round.at(i)) differs = true;
  }
  EXPECT_TRUE(differs);  // fresh draw each round
}

TEST(AdversaryTest, LabelFlipRemapsOnlyAdversarialClients) {
  AdversaryOptions options;
  options.mode = "label_flip";
  options.fraction = 0.5;
  Adversary adv(options, 13, 2);
  EXPECT_TRUE(adv.CorruptsLabels());
  EXPECT_FALSE(adv.CorruptsUpdates());
  const int bad = adv.IsAdversarial(0) ? 0 : 1;
  std::vector<int> labels = {0, 1, 2};
  adv.CorruptLabels(bad, &labels, 3);
  EXPECT_EQ(labels, (std::vector<int>{2, 1, 0}));
  std::vector<int> honest = {0, 1, 2};
  adv.CorruptLabels(1 - bad, &honest, 3);
  EXPECT_EQ(honest, (std::vector<int>{0, 1, 2}));
}

// ---- selection satellite: non-finite losses are counted, not masked ----

TEST(SelectionTest, NonFiniteLossesIncrementTheCounter) {
  obs::Counter* counter =
      obs::MetricsRegistry::Get().GetCounter("fl.nonfinite_loss");
  const int64_t before = counter->value();
  std::vector<double> losses = {std::nan(""), 1.0, 2.0,
                                std::numeric_limits<double>::infinity()};
  Rng rng(3);
  std::vector<int> picked = LossProportionalSelection(losses, 2, &rng);
  EXPECT_EQ(picked.size(), 2u);
  EXPECT_EQ(counter->value() - before, 2);
}

// ---- end-to-end attacks through the training loop ----

struct AttackFixture {
  AttackFixture()
      : rng(42),
        data(GenerateImageData(MnistLikeProfile(), 150, 50, &rng)),
        split(SimilarityPartition(data.train, 5, 0.5, &rng)) {
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

FlConfig AttackConfig() {
  FlConfig config;
  config.local_steps = 2;
  config.batch_size = 8;
  config.lr = 0.05;
  config.seed = 21;
  config.max_examples_per_pass = 64;
  return config;
}

TEST(AttackTest, NanEmittersAreQuarantinedAndTrainingStaysFinite) {
  AttackFixture fx;
  FlConfig config = AttackConfig();
  config.adversary.mode = "nan";
  config.adversary.fraction = 0.4;  // 2 of 5 clients
  obs::Counter* quarantined =
      obs::MetricsRegistry::Get().GetCounter("fl.quarantined_updates");
  const int64_t before = quarantined->value();

  FedAvg algo(config, &fx.data.train, fx.views, fx.factory);
  for (int r = 0; r < 3; ++r) algo.RunRound(r);

  for (int64_t i = 0; i < algo.global_state().size(); ++i) {
    ASSERT_TRUE(std::isfinite(algo.global_state().at(i)));
  }
  // Both emitters rejected in each of the 3 rounds.
  EXPECT_EQ(quarantined->value() - before, 6);
  // The rejection reputation blames exactly the adversarial clients.
  for (int k = 0; k < 5; ++k) {
    if (algo.adversary().IsAdversarial(k)) {
      EXPECT_EQ(algo.rejection_count(k), 3) << k;
    } else {
      EXPECT_EQ(algo.rejection_count(k), 0) << k;
    }
  }
}

TEST(AttackTest, ScaffoldSurvivesNanEmitters) {
  // The validation screen runs before OnClientTrained, so a NaN update
  // never reaches SCAFFOLD's control-variate refresh.
  AttackFixture fx;
  FlConfig config = AttackConfig();
  config.adversary.mode = "nan";
  config.adversary.fraction = 0.4;
  Scaffold algo(config, &fx.data.train, fx.views, fx.factory);
  for (int r = 0; r < 3; ++r) algo.RunRound(r);
  for (int64_t i = 0; i < algo.global_state().size(); ++i) {
    ASSERT_TRUE(std::isfinite(algo.global_state().at(i)));
  }
}

TEST(AttackTest, NormClipBoundsTheScaleAttack) {
  FlConfig attacked = AttackConfig();
  attacked.adversary.mode = "scale";
  attacked.adversary.fraction = 0.2;  // 1 of 5
  attacked.adversary.scale = 50.0;

  obs::Counter* clipped =
      obs::MetricsRegistry::Get().GetCounter("fl.clipped_updates");
  const int64_t before = clipped->value();

  // The attack-free reference trajectory (same seeds everywhere).
  FlConfig clean = AttackConfig();
  AttackFixture clean_fx;
  FedAvg clean_algo(clean, &clean_fx.data.train, clean_fx.views,
                    clean_fx.factory);
  for (int r = 0; r < 3; ++r) clean_algo.RunRound(r);

  // Plain mean absorbs the boosted update in full...
  AttackFixture mean_fx;
  FedAvg mean_algo(attacked, &mean_fx.data.train, mean_fx.views,
                   mean_fx.factory);
  for (int r = 0; r < 3; ++r) mean_algo.RunRound(r);

  // ...while the norm bound caps it at 3x the median honest delta.
  FlConfig defended = attacked;
  defended.robust.aggregator = "norm_clip";
  AttackFixture clip_fx;
  FedAvg clip_algo(defended, &clip_fx.data.train, clip_fx.views,
                   clip_fx.factory);
  for (int r = 0; r < 3; ++r) clip_algo.RunRound(r);

  EXPECT_GT(clipped->value() - before, 0);
  for (int64_t i = 0; i < clip_algo.global_state().size(); ++i) {
    ASSERT_TRUE(std::isfinite(clip_algo.global_state().at(i)));
  }
  // The defended model stays far closer to the clean trajectory than the
  // undefended one (the attacker's delta is 50x an honest step).
  Tensor mean_err = mean_algo.global_state();
  mean_err.SubInPlace(clean_algo.global_state());
  Tensor clip_err = clip_algo.global_state();
  clip_err.SubInPlace(clean_algo.global_state());
  EXPECT_GT(mean_err.SquaredNorm(), 4.0f * clip_err.SquaredNorm());
}

TEST(AttackTest, TrimmedMeanTrainsThroughSignFlip) {
  AttackFixture fx;
  FlConfig config = AttackConfig();
  config.adversary.mode = "sign_flip";
  config.adversary.fraction = 0.2;
  config.robust.aggregator = "trimmed_mean";
  FedAvg algo(config, &fx.data.train, fx.views, fx.factory);
  TrainerOptions options;
  options.eval_max_examples = 50;
  FederatedTrainer trainer(&algo, &fx.data.test, options);
  RunHistory history = trainer.Run(6);
  ASSERT_EQ(history.rounds.size(), 6u);
  EXPECT_TRUE(std::isfinite(history.rounds.back().train_loss));
  // Loss still goes down despite the gradient-ascent client.
  EXPECT_LT(history.rounds.back().train_loss,
            history.rounds.front().train_loss);
}

TEST(AttackTest, LabelFlipPoisonsDataNotUpdates) {
  AttackFixture fx;
  FlConfig config = AttackConfig();
  config.adversary.mode = "label_flip";
  config.adversary.fraction = 0.4;
  FedAvg algo(config, &fx.data.train, fx.views, fx.factory);
  for (int r = 0; r < 3; ++r) algo.RunRound(r);
  EXPECT_EQ(algo.adversary().num_adversarial(), 2);
  // The updates themselves are honest floats: nothing to quarantine.
  for (int k = 0; k < algo.num_clients(); ++k) {
    EXPECT_EQ(algo.rejection_count(k), 0) << k;
  }
  for (int64_t i = 0; i < algo.global_state().size(); ++i) {
    ASSERT_TRUE(std::isfinite(algo.global_state().at(i)));
  }
}

TEST(AttackTest, DefaultsAreBitIdenticalToUndefendedRun) {
  // validate=true screens but never alters finite updates, and the mean
  // aggregation path is byte-for-byte the pre-defense loop: a clean run
  // must not move at all.
  AttackFixture fx_a;
  FedAvg defended(AttackConfig(), &fx_a.data.train, fx_a.views, fx_a.factory);
  FlConfig off = AttackConfig();
  off.robust.validate = false;
  AttackFixture fx_b;
  FedAvg undefended(off, &fx_b.data.train, fx_b.views, fx_b.factory);
  for (int r = 0; r < 3; ++r) {
    defended.RunRound(r);
    undefended.RunRound(r);
  }
  ASSERT_EQ(defended.global_state().size(), undefended.global_state().size());
  for (int64_t i = 0; i < defended.global_state().size(); ++i) {
    ASSERT_EQ(defended.global_state().at(i), undefended.global_state().at(i))
        << i;
  }
}

}  // namespace
}  // namespace rfed
