#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "nn/conv.h"
#include "nn/embedding.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/models.h"
#include "nn/optimizer.h"
#include "test_util.h"

namespace rfed {
namespace {

using ::rfed::testing::MaxGradCheckError;

constexpr double kTol = 5e-2;

TEST(ModuleTest, ParameterRegistrationOrderIsStable) {
  Rng rng(1);
  Linear layer(4, 3, &rng);
  auto params = layer.Parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0]->value().shape(), Shape({4, 3}));  // weight first
  EXPECT_EQ(params[1]->value().shape(), Shape({3}));     // bias second
  auto names = layer.ParameterNames();
  EXPECT_EQ(names[0], "weight");
  EXPECT_EQ(names[1], "bias");
}

TEST(ModuleTest, SubmoduleParametersAppended) {
  Rng rng(2);
  CnnModel model(CnnConfig{}, &rng);
  auto names = model.ParameterNames();
  ASSERT_GE(names.size(), 8u);
  EXPECT_EQ(names[0], "conv1.weight");
  EXPECT_EQ(names.back(), "fc2.bias");
  EXPECT_GT(model.NumParameters(), 0);
}

TEST(ModuleTest, ZeroGradClearsAll) {
  Rng rng(3);
  Linear layer(3, 2, &rng);
  Variable x(Tensor::Normal(Shape{4, 3}, 0, 1, &rng));
  ag::Sum(layer.Forward(x)).Backward();
  EXPECT_TRUE(layer.Parameters()[0]->has_grad());
  EXPECT_GT(layer.Parameters()[0]->grad().MaxAbs(), 0.0f);
  layer.ZeroGrad();
  EXPECT_EQ(layer.Parameters()[0]->grad().MaxAbs(), 0.0f);
}

TEST(InitTest, XavierUniformBounds) {
  Rng rng(4);
  Tensor t = XavierUniform(Shape{100, 50}, 100, 50, &rng);
  const float bound = std::sqrt(6.0f / 150.0f);
  EXPECT_LE(t.MaxAbs(), bound);
  EXPECT_NEAR(t.Mean(), 0.0f, 0.01f);
}

TEST(InitTest, KaimingNormalVariance) {
  Rng rng(5);
  Tensor t = KaimingNormal(Shape{200, 100}, 200, &rng);
  EXPECT_NEAR(t.SquaredNorm() / static_cast<float>(t.size()), 2.0f / 200.0f,
              0.002f);
}

TEST(LinearTest, ForwardMatchesManual) {
  Rng rng(6);
  Linear layer(2, 2, &rng);
  // Overwrite weights with known values.
  layer.Parameters()[0]->mutable_value() = Tensor(Shape{2, 2}, {1, 2, 3, 4});
  layer.Parameters()[1]->mutable_value() = Tensor(Shape{2}, {10, 20});
  Variable x(Tensor(Shape{1, 2}, {1, 1}));
  Tensor y = layer.Forward(x).value();
  EXPECT_TRUE(AllClose(y, Tensor(Shape{1, 2}, {14, 26}), 1e-5f));
}

TEST(LinearTest, GradcheckThroughLayer) {
  Rng rng(7);
  Linear layer(3, 2, &rng);
  Variable x(Tensor::Normal(Shape{4, 3}, 0, 1, &rng), true);
  auto loss = [&] { return ag::Sum(ag::Tanh(layer.Forward(x))); };
  std::vector<Variable*> leaves = layer.Parameters();
  leaves.push_back(&x);
  EXPECT_LT(MaxGradCheckError(loss, leaves), kTol);
}

TEST(ConvLayerTest, OutputShape) {
  Rng rng(8);
  Conv2dLayer conv(3, 8, 5, 1, 2, &rng);
  Variable x(Tensor::Normal(Shape{2, 3, 12, 12}, 0, 1, &rng));
  EXPECT_EQ(conv.ForwardReluPool(x).shape(), Shape({2, 8, 6, 6}));
}

TEST(EmbeddingTest, LookupAndGradcheck) {
  Rng rng(9);
  Embedding emb(10, 4, &rng);
  const std::vector<int> ids{1, 3, 3, 7};
  Variable out = emb.Forward(ids, /*timestep=*/0);
  EXPECT_EQ(out.shape(), Shape({4, 4}));
  auto loss = [&] {
    return ag::Sum(ag::Tanh(emb.Forward(ids, /*timestep=*/0)));
  };
  EXPECT_LT(MaxGradCheckError(loss, emb.Parameters()), kTol);
}

TEST(LstmTest, StateShapesAndForgetBias) {
  Rng rng(10);
  LstmLayer lstm(4, 6, &rng);
  auto state = lstm.InitialState(3);
  EXPECT_EQ(state.h.shape(), Shape({3, 6}));
  EXPECT_EQ(state.c.shape(), Shape({3, 6}));
  // Forget-gate bias slice initialized to 1.
  const Tensor& bias = lstm.Parameters()[2]->value();
  EXPECT_EQ(bias.at(6), 1.0f);
  EXPECT_EQ(bias.at(0), 0.0f);
  EXPECT_EQ(bias.at(3 * 6), 0.0f);
}

TEST(LstmTest, UnrollLengthMatches) {
  Rng rng(11);
  LstmLayer lstm(3, 5, &rng);
  std::vector<Variable> seq;
  for (int t = 0; t < 7; ++t) {
    seq.emplace_back(Tensor::Normal(Shape{2, 3}, 0, 1, &rng));
  }
  auto outputs = lstm.Unroll(seq);
  EXPECT_EQ(outputs.size(), 7u);
  EXPECT_EQ(outputs.back().shape(), Shape({2, 5}));
}

TEST(LstmTest, GradcheckThroughTime) {
  Rng rng(12);
  LstmLayer lstm(2, 3, &rng);
  std::vector<Variable> seq;
  for (int t = 0; t < 4; ++t) {
    seq.emplace_back(Tensor::Normal(Shape{2, 2}, 0, 0.5f, &rng), false);
  }
  auto loss = [&] { return ag::Sum(lstm.Unroll(seq).back()); };
  EXPECT_LT(MaxGradCheckError(loss, lstm.Parameters(), 5e-3), 0.1);
}

TEST(LossTest, AccuracyAndArgmax) {
  Tensor logits(Shape{3, 2}, {1, 0, 0, 1, 2, 1});
  EXPECT_EQ(ArgmaxRows(logits), (std::vector<int>{0, 1, 0}));
  EXPECT_NEAR(Accuracy(logits, {0, 1, 1}), 2.0 / 3.0, 1e-9);
}

TEST(OptimizerTest, SgdStepMatchesManual) {
  Variable w(Tensor(Shape{2}, {1.0f, 2.0f}), true);
  w.grad() = Tensor(Shape{2}, {0.5f, -0.5f});
  // Mark as having grad by accumulating zero (grad() already allocated).
  SgdOptimizer opt({&w}, 0.1);
  opt.Step();
  EXPECT_TRUE(AllClose(w.value(), Tensor(Shape{2}, {0.95f, 2.05f}), 1e-6f));
}

TEST(OptimizerTest, SgdMomentumAccumulates) {
  Variable w(Tensor(Shape{1}, {0.0f}), true);
  SgdOptimizer opt({&w}, 1.0, /*momentum=*/0.9);
  w.grad() = Tensor(Shape{1}, {1.0f});
  opt.Step();  // v=1, w=-1
  EXPECT_NEAR(w.value().at(0), -1.0f, 1e-6f);
  opt.Step();  // v=0.9*1+1=1.9, w=-2.9
  EXPECT_NEAR(w.value().at(0), -2.9f, 1e-6f);
}

TEST(OptimizerTest, WeightDecayShrinksWeights) {
  Variable w(Tensor(Shape{1}, {10.0f}), true);
  w.grad();  // zero grad
  SgdOptimizer opt({&w}, 0.1, 0.0, /*weight_decay=*/0.5);
  opt.Step();
  EXPECT_NEAR(w.value().at(0), 10.0f - 0.1f * 0.5f * 10.0f, 1e-5f);
}

TEST(OptimizerTest, RmsPropNormalizesScale) {
  // Two parameters with very different gradient magnitudes should move
  // by a comparable amount under RMSProp.
  Variable a(Tensor(Shape{1}, {0.0f}), true);
  Variable b(Tensor(Shape{1}, {0.0f}), true);
  RmsPropOptimizer opt({&a, &b}, 0.01);
  for (int i = 0; i < 50; ++i) {
    a.ZeroGrad();
    b.ZeroGrad();
    a.grad() = Tensor(Shape{1}, {100.0f});
    b.grad() = Tensor(Shape{1}, {0.01f});
    opt.Step();
  }
  const float ratio = std::fabs(a.value().at(0) / b.value().at(0));
  EXPECT_LT(ratio, 5.0f);
  EXPECT_GT(ratio, 0.2f);
}

TEST(OptimizerTest, SkipsParamsWithoutGrad) {
  Variable w(Tensor(Shape{1}, {3.0f}), true);
  SgdOptimizer opt({&w}, 0.1);
  opt.Step();  // no grad accumulated -> unchanged
  EXPECT_EQ(w.value().at(0), 3.0f);
}

TEST(OptimizerTest, LearningRateSetter) {
  Variable w(Tensor(Shape{1}, {0.0f}), true);
  SgdOptimizer opt({&w}, 0.1);
  opt.set_lr(0.5);
  w.grad() = Tensor(Shape{1}, {1.0f});
  opt.Step();
  EXPECT_NEAR(w.value().at(0), -0.5f, 1e-6f);
}

TEST(CnnModelTest, ForwardShapes) {
  Rng rng(13);
  CnnConfig config;
  config.in_channels = 3;
  CnnModel model(config, &rng);
  Batch batch;
  batch.images = Tensor::Normal(Shape{4, 3, 12, 12}, 0, 1, &rng);
  batch.labels = {0, 1, 2, 3};
  ModelOutput out = model.Forward(batch);
  EXPECT_EQ(out.features.shape(), Shape({4, config.feature_dim}));
  EXPECT_EQ(out.logits.shape(), Shape({4, 10}));
}

TEST(CnnModelTest, TrainingReducesLoss) {
  Rng rng(14);
  CnnConfig config;
  config.conv1_channels = 4;
  config.conv2_channels = 8;
  config.feature_dim = 16;
  config.num_classes = 3;
  CnnModel model(config, &rng);
  Batch batch;
  batch.images = Tensor::Normal(Shape{12, 1, 12, 12}, 0, 1, &rng);
  batch.labels = {0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2};
  SgdOptimizer opt(model.Parameters(), 0.05);
  double first_loss = 0.0, last_loss = 0.0;
  for (int step = 0; step < 30; ++step) {
    ModelOutput out = model.Forward(batch);
    Variable loss = CrossEntropyLoss(out.logits, batch.labels);
    if (step == 0) first_loss = loss.value().ToScalar();
    last_loss = loss.value().ToScalar();
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(last_loss, 0.8 * first_loss);
}

TEST(LstmModelTest, ForwardShapesAndTraining) {
  Rng rng(15);
  LstmConfig config;
  config.vocab_size = 20;
  config.embed_dim = 8;
  config.hidden_dim = 12;
  config.feature_dim = 10;
  LstmModel model(config, &rng);
  Batch batch;
  batch.tokens = {{1, 2, 3, 4}, {5, 6, 7, 8}, {1, 1, 1, 1}, {9, 9, 9, 9}};
  batch.labels = {0, 1, 0, 1};
  ModelOutput out = model.Forward(batch);
  EXPECT_EQ(out.features.shape(), Shape({4, 10}));
  EXPECT_EQ(out.logits.shape(), Shape({4, 2}));

  RmsPropOptimizer opt(model.Parameters(), 0.01);
  double first_loss = 0.0, last_loss = 0.0;
  for (int step = 0; step < 40; ++step) {
    ModelOutput o = model.Forward(batch);
    Variable loss = CrossEntropyLoss(o.logits, batch.labels);
    if (step == 0) first_loss = loss.value().ToScalar();
    last_loss = loss.value().ToScalar();
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(last_loss, 0.5 * first_loss);
}

TEST(MlpModelTest, ForwardShapesAndTraining) {
  Rng rng(16);
  MlpConfig config;
  config.hidden_dim = 32;
  config.feature_dim = 16;
  config.num_classes = 4;
  MlpModel model(config, &rng);
  Batch batch;
  batch.images = Tensor::Normal(Shape{8, 1, 12, 12}, 0, 1, &rng);
  batch.labels = {0, 1, 2, 3, 0, 1, 2, 3};
  ModelOutput out = model.Forward(batch);
  EXPECT_EQ(out.features.shape(), Shape({8, 16}));
  EXPECT_EQ(out.logits.shape(), Shape({8, 4}));

  SgdOptimizer opt(model.Parameters(), 0.05);
  double first_loss = 0.0, last_loss = 0.0;
  for (int step = 0; step < 40; ++step) {
    ModelOutput o = model.Forward(batch);
    Variable loss = CrossEntropyLoss(o.logits, batch.labels);
    if (step == 0) first_loss = loss.value().ToScalar();
    last_loss = loss.value().ToScalar();
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(last_loss, 0.5 * first_loss);
}

TEST(MlpModelTest, ParameterNamesStable) {
  Rng rng(17);
  MlpModel model(MlpConfig{}, &rng);
  auto names = model.ParameterNames();
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names[0], "fc1.weight");
  EXPECT_EQ(names[5], "fc3.bias");
}

TEST(ModelFactoryTest, ProducesIndependentModels) {
  CnnConfig config;
  ModelFactory factory = MakeCnnFactory(config);
  Rng rng1(1), rng2(1);
  auto m1 = factory(&rng1);
  auto m2 = factory(&rng2);
  // Same seed -> identical init; different objects.
  EXPECT_NE(m1.get(), m2.get());
  EXPECT_TRUE(AllClose(m1->Parameters()[0]->value(),
                       m2->Parameters()[0]->value(), 0.0f));
  EXPECT_EQ(m1->default_optimizer(), OptimizerKind::kSgd);
}

TEST(ModelFactoryTest, LstmFactoryDefaultsToRmsProp) {
  LstmConfig config;
  Rng rng(1);
  auto model = MakeLstmFactory(config)(&rng);
  EXPECT_EQ(model->default_optimizer(), OptimizerKind::kRmsProp);
}

}  // namespace
}  // namespace rfed
