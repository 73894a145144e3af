#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "nn/optimizer.h"
#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"
#include "test_util.h"
#include "util/rng.h"

namespace rfed {
namespace {

using ::rfed::testing::MaxGradCheckError;

constexpr double kTol = 5e-2;  // float32 kernels vs double finite diffs

Variable Leaf(Tensor t) { return Variable(std::move(t), true); }

TEST(AutogradTest, AddBackward) {
  Rng rng(1);
  Variable a = Leaf(Tensor::Normal(Shape{3, 4}, 0, 1, &rng));
  Variable b = Leaf(Tensor::Normal(Shape{3, 4}, 0, 1, &rng));
  auto loss = [&] { return ag::Sum(ag::Add(a, b)); };
  EXPECT_LT(MaxGradCheckError(loss, {&a, &b}), kTol);
}

TEST(AutogradTest, SubBackward) {
  Rng rng(2);
  Variable a = Leaf(Tensor::Normal(Shape{5}, 0, 1, &rng));
  Variable b = Leaf(Tensor::Normal(Shape{5}, 0, 1, &rng));
  auto loss = [&] { return ag::Sum(ag::Sub(a, b)); };
  EXPECT_LT(MaxGradCheckError(loss, {&a, &b}), kTol);
}

TEST(AutogradTest, MulBackward) {
  Rng rng(3);
  Variable a = Leaf(Tensor::Normal(Shape{4, 2}, 0, 1, &rng));
  Variable b = Leaf(Tensor::Normal(Shape{4, 2}, 0, 1, &rng));
  auto loss = [&] { return ag::Sum(ag::Mul(a, b)); };
  EXPECT_LT(MaxGradCheckError(loss, {&a, &b}), kTol);
}

TEST(AutogradTest, ScaleBackward) {
  Rng rng(4);
  Variable a = Leaf(Tensor::Normal(Shape{6}, 0, 1, &rng));
  auto loss = [&] { return ag::Sum(ag::Scale(a, -2.5f)); };
  EXPECT_LT(MaxGradCheckError(loss, {&a}), kTol);
}

TEST(AutogradTest, ReluBackwardAwayFromKink) {
  // Values bounded away from 0 so finite differences are valid.
  Tensor t(Shape{4}, {-2.0f, -1.0f, 1.0f, 2.0f});
  Variable a = Leaf(std::move(t));
  auto loss = [&] { return ag::Sum(ag::Relu(a)); };
  EXPECT_LT(MaxGradCheckError(loss, {&a}), kTol);
}

TEST(AutogradTest, TanhBackward) {
  Rng rng(6);
  Variable a = Leaf(Tensor::Normal(Shape{8}, 0, 1, &rng));
  auto loss = [&] { return ag::Sum(ag::Tanh(a)); };
  EXPECT_LT(MaxGradCheckError(loss, {&a}), kTol);
}

TEST(AutogradTest, SigmoidBackward) {
  Rng rng(7);
  Variable a = Leaf(Tensor::Normal(Shape{8}, 0, 1, &rng));
  auto loss = [&] { return ag::Sum(ag::Sigmoid(a)); };
  EXPECT_LT(MaxGradCheckError(loss, {&a}), kTol);
}

TEST(AutogradTest, MatMulBackward) {
  Rng rng(8);
  Variable a = Leaf(Tensor::Normal(Shape{3, 4}, 0, 1, &rng));
  Variable b = Leaf(Tensor::Normal(Shape{4, 2}, 0, 1, &rng));
  auto loss = [&] { return ag::Sum(ag::MatMul(a, b)); };
  EXPECT_LT(MaxGradCheckError(loss, {&a, &b}), kTol);
}

TEST(AutogradTest, AddRowBroadcastBackward) {
  Rng rng(9);
  Variable x = Leaf(Tensor::Normal(Shape{3, 4}, 0, 1, &rng));
  Variable b = Leaf(Tensor::Normal(Shape{4}, 0, 1, &rng));
  auto loss = [&] { return ag::Sum(ag::AddRowBroadcast(x, b)); };
  EXPECT_LT(MaxGradCheckError(loss, {&x, &b}), kTol);
}

TEST(AutogradTest, ReshapeBackward) {
  Rng rng(10);
  Variable x = Leaf(Tensor::Normal(Shape{2, 6}, 0, 1, &rng));
  auto loss = [&] {
    return ag::Sum(ag::Tanh(ag::Reshape(x, Shape{3, 4})));
  };
  EXPECT_LT(MaxGradCheckError(loss, {&x}), kTol);
}

TEST(AutogradTest, SliceColsBackward) {
  Rng rng(11);
  Variable x = Leaf(Tensor::Normal(Shape{3, 6}, 0, 1, &rng));
  auto loss = [&] {
    Variable left = ag::SliceCols(x, 0, 2);
    Variable right = ag::SliceCols(x, 4, 6);
    return ag::Add(ag::Sum(ag::Tanh(left)), ag::Sum(ag::Mul(right, right)));
  };
  EXPECT_LT(MaxGradCheckError(loss, {&x}), kTol);
}

TEST(AutogradTest, ConcatRowsBackward) {
  Rng rng(12);
  Variable a = Leaf(Tensor::Normal(Shape{2, 3}, 0, 1, &rng));
  Variable b = Leaf(Tensor::Normal(Shape{3, 3}, 0, 1, &rng));
  auto loss = [&] { return ag::Sum(ag::Tanh(ag::ConcatRows(a, b))); };
  EXPECT_LT(MaxGradCheckError(loss, {&a, &b}), kTol);
}

TEST(AutogradTest, MeanBackward) {
  Rng rng(13);
  Variable x = Leaf(Tensor::Normal(Shape{4, 4}, 0, 1, &rng));
  auto loss = [&] { return ag::Mean(ag::Mul(x, x)); };
  EXPECT_LT(MaxGradCheckError(loss, {&x}), kTol);
}

TEST(AutogradTest, MeanRowsBackward) {
  Rng rng(14);
  Variable x = Leaf(Tensor::Normal(Shape{5, 3}, 0, 1, &rng));
  Tensor target = Tensor::Normal(Shape{3}, 0, 1, &rng);
  auto loss = [&] {
    return ag::SquaredDistanceToConst(ag::MeanRows(x), target);
  };
  EXPECT_LT(MaxGradCheckError(loss, {&x}), kTol);
}

TEST(AutogradTest, SquaredNormBackward) {
  Rng rng(15);
  Variable x = Leaf(Tensor::Normal(Shape{7}, 0, 1, &rng));
  auto loss = [&] { return ag::SquaredNorm(x); };
  EXPECT_LT(MaxGradCheckError(loss, {&x}), kTol);
}

TEST(AutogradTest, GatherRowsBackward) {
  Rng rng(16);
  Variable table = Leaf(Tensor::Normal(Shape{5, 3}, 0, 1, &rng));
  const std::vector<int> ids{0, 2, 2, 4};
  auto loss = [&] {
    return ag::Sum(ag::Tanh(ag::GatherRows(table, ids, /*timestep=*/0)));
  };
  EXPECT_LT(MaxGradCheckError(loss, {&table}), kTol);
}

TEST(AutogradTest, Conv2dBiasReluPoolBackwardThroughOp) {
  // Pre-activations of both signs; none within 0.05 of the kink and no
  // two in a window within 0.05 of each other, so the central
  // differences step across neither the clamp nor a change of winner.
  Rng rng(39);
  Conv2dSpec spec{.in_channels = 2, .out_channels = 3, .kernel = 3,
                  .stride = 1, .pad = 1};
  Variable x = Leaf(Tensor::Normal(Shape{2, 2, 4, 4}, 0, 1, &rng));
  Variable w = Leaf(Tensor::Normal(Shape{3, 18}, 0, 0.5f, &rng));
  Variable b = Leaf(Tensor(Shape{3}, {0.3f, -0.2f, 0.1f}));
  Tensor pre(Shape{2, 3, 4, 4});
  ref::Conv2dForwardKernel(x.value().data(), w.value().data(),
                           b.value().data(), {2, 2, 4, 4, 3, 3, 1, 1},
                           pre.data());
  int positive = 0;
  for (int64_t i = 0; i < pre.size(); ++i) {
    ASSERT_GT(std::fabs(pre.at(i)), 0.05f) << "element " << i;
    positive += pre.at(i) > 0.0f ? 1 : 0;
  }
  ASSERT_GT(positive, 0);
  ASSERT_LT(positive, pre.size());
  for (int64_t r = 0; r < pre.size() / 8; ++r) {
    for (int64_t c = 0; c < 2; ++c) {
      const int64_t at = 2 * r * 4 + 2 * c;
      const float v[4] = {pre.at(at), pre.at(at + 1), pre.at(at + 4),
                          pre.at(at + 5)};
      for (int i = 0; i < 4; ++i) {
        for (int j = i + 1; j < 4; ++j) {
          if (v[i] > 0.0f || v[j] > 0.0f) {
            ASSERT_GT(std::fabs(v[i] - v[j]), 0.05f) << "window at " << at;
          }
        }
      }
    }
  }
  auto loss = [&] {
    return ag::Sum(ag::Tanh(ag::Conv2dBiasReluPool(x, w, b, spec)));
  };
  EXPECT_LT(MaxGradCheckError(loss, {&x, &w, &b}, 5e-3), 0.1);
}

TEST(AutogradTest, MaxPoolBackwardThroughOp) {
  // The pool through the conv block with a 1x1 identity conv. Distinct
  // positive winners so the argmax and the clamp are stable under the
  // FD perturbation.
  Tensor t(Shape{1, 1, 4, 4});
  for (int64_t i = 0; i < 16; ++i) t.at(i) = static_cast<float>(i) * 0.37f;
  Variable x = Leaf(std::move(t));
  const Variable w(Tensor(Shape{1, 1}, {1.0f}), false);
  const Variable b(Tensor(Shape{1}), false);
  const Conv2dSpec spec{.in_channels = 1, .out_channels = 1, .kernel = 1};
  auto loss = [&] { return ag::Sum(ag::Conv2dBiasReluPool(x, w, b, spec)); };
  EXPECT_LT(MaxGradCheckError(loss, {&x}), kTol);
}

TEST(AutogradTest, SoftmaxCrossEntropyBackward) {
  Rng rng(18);
  Variable logits = Leaf(Tensor::Normal(Shape{4, 5}, 0, 1, &rng));
  const std::vector<int> labels{1, 0, 4, 2};
  auto loss = [&] { return ag::SoftmaxCrossEntropy(logits, labels); };
  EXPECT_LT(MaxGradCheckError(loss, {&logits}), kTol);
}

TEST(AutogradTest, DiamondGraphAccumulates) {
  // y = x used twice: d(sum(x*x + x*x))/dx = 4x.
  Variable x = Leaf(Tensor(Shape{3}, {1, 2, 3}));
  Variable doubled = ag::Add(ag::Mul(x, x), ag::Mul(x, x));
  Variable loss = ag::Sum(doubled);
  loss.Backward();
  EXPECT_TRUE(AllClose(x.grad(), Tensor(Shape{3}, {4, 8, 12}), 1e-5f));
}

TEST(AutogradTest, BackwardAccumulatesAcrossCalls) {
  Variable x = Leaf(Tensor(Shape{2}, {1, 1}));
  ag::Sum(x).Backward();
  ag::Sum(x).Backward();
  EXPECT_TRUE(AllClose(x.grad(), Tensor(Shape{2}, {2, 2}), 1e-6f));
  x.ZeroGrad();
  EXPECT_TRUE(AllClose(x.grad(), Tensor(Shape{2}), 1e-6f));
}

TEST(AutogradTest, NoGradLeavesStayEmpty) {
  Variable x(Tensor(Shape{2}, {1, 2}), /*requires_grad=*/false);
  Variable y = Leaf(Tensor(Shape{2}, {3, 4}));
  Variable loss = ag::Sum(ag::Mul(x, y));
  loss.Backward();
  EXPECT_FALSE(x.has_grad());
  EXPECT_TRUE(y.has_grad());
}

TEST(AutogradTest, DeepChainDoesNotOverflow) {
  Variable x = Leaf(Tensor(Shape{4}, {0.1f, 0.2f, 0.3f, 0.4f}));
  Variable h = x;
  for (int i = 0; i < 2000; ++i) h = ag::Scale(h, 1.0f);
  Variable loss = ag::Sum(h);
  loss.Backward();
  EXPECT_TRUE(AllClose(x.grad(), Tensor(Shape{4}, {1, 1, 1, 1}), 1e-4f));
}

TEST(AutogradTest, CompositeExpressionGradcheck) {
  Rng rng(19);
  Variable a = Leaf(Tensor::Normal(Shape{3, 4}, 0, 0.5f, &rng));
  Variable b = Leaf(Tensor::Normal(Shape{4, 3}, 0, 0.5f, &rng));
  auto loss = [&] {
    Variable prod = ag::MatMul(a, b);               // [3,3]
    Variable act = ag::Sigmoid(ag::Tanh(prod));     // [3,3]
    return ag::Mean(ag::Mul(act, act));
  };
  EXPECT_LT(MaxGradCheckError(loss, {&a, &b}), kTol);
}

// ---- Where a gradient lands (docs/AUTOGRAD.md) ----
// A first contribution is adopted or written as 0.0f + g instead of
// being added onto zero-filled storage. Each test compares the result
// bitwise with that fill-and-add sum.

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

/// The old gradient: +0 storage, then every contribution added in turn.
Tensor FillAndAdd(const Shape& shape, const std::vector<Tensor>& terms) {
  Tensor sum(shape);
  for (const Tensor& t : terms) sum.AddInPlace(t);
  return sum;
}

TEST(GradientLandingTest, SubSecondInputOfZeroUpstreamStoresPlusZero) {
  // Scale by 0 makes Sub's upstream +0, so b's contribution
  // Scale(+0, -1) is all -0; the gradient must hold 0 + (-0) = +0.
  Variable a = Leaf(Tensor(Shape{4}, {1, -2, 3, -4}));
  Variable b = Leaf(Tensor(Shape{4}, {5, 6, -7, 8}));
  ag::Sum(ag::Scale(ag::Sub(a, b), 0.0f)).Backward();
  const Tensor minus_zero(Shape{4}, -0.0f);
  const Tensor want = FillAndAdd(Shape{4}, {minus_zero});
  EXPECT_TRUE(SameBits(b.grad(), want)) << b.grad().ToString();
  for (int64_t i = 0; i < 4; ++i) EXPECT_FALSE(std::signbit(b.grad().at(i)));
  EXPECT_TRUE(SameBits(a.grad(), want));
}

TEST(GradientLandingTest, ZeroedParameterWithoutContributionReadsPlusZero) {
  // w and w_ref share every step; after the ZeroGrad, w is left pending
  // and no contribution reaches it, while w_ref is filled eagerly the
  // way ZeroGrad used to. The SGD step under weight decay and momentum
  // reads both gradients and must move the two weights identically.
  const Tensor init(Shape{2, 3}, {0.5f, -1.25f, 2, -0.0f, 3, -4});
  Variable w = Leaf(init);
  Variable w_ref = Leaf(init);
  Variable other = Leaf(Tensor(Shape{2}, {1, 2}));
  SgdOptimizer opt({&w}, 0.1, /*momentum=*/0.9, /*weight_decay=*/0.01);
  SgdOptimizer opt_ref({&w_ref}, 0.1, 0.9, 0.01);
  ag::Sum(ag::Mul(w, w)).Backward();
  ag::Sum(ag::Mul(w_ref, w_ref)).Backward();
  opt.Step();
  opt_ref.Step();

  opt.ZeroGrad();
  ag::Sum(other).Backward();
  w_ref.grad().Fill(0.0f);
  opt.Step();
  opt_ref.Step();
  EXPECT_TRUE(SameBits(w.grad(), Tensor(Shape{2, 3})));
  EXPECT_TRUE(SameBits(w.value(), w_ref.value()));
  EXPECT_FALSE(SameBits(w.value(), init));
}

TEST(GradientLandingTest, NodeUsedTwiceHoldsFirstPlusZeroThenSecond) {
  // Add(x, x): the Add node's gradient g reaches x twice. -0 and a
  // denormal in the upstream show the +0 rule and the plain second add.
  const Tensor c(Shape{4}, {-0.0f, 1.5f, -2.25f, 1e-40f});
  Variable x = Leaf(Tensor(Shape{4}, {1, 2, 3, 4}));
  ag::Sum(ag::Mul(ag::Add(x, x), Variable(c))).Backward();
  const Tensor g = FillAndAdd(Shape{4}, {Mul(Tensor(Shape{4}, 1.0f), c)});
  EXPECT_TRUE(SameBits(x.grad(), FillAndAdd(Shape{4}, {g, g})))
      << x.grad().ToString();

  // One weight read by two ops of the same graph, as an LSTM's are at
  // every timestep. The backward visits the second product first.
  Rng rng(20);
  const Tensor a = Tensor::Normal(Shape{3, 4}, 0, 1, &rng);
  const Tensor b = Tensor::Normal(Shape{3, 4}, 0, 1, &rng);
  Variable wt = Leaf(Tensor::Normal(Shape{4, 2}, 0, 1, &rng));
  ag::Sum(ag::Add(ag::MatMul(Variable(a), wt), ag::MatMul(Variable(b), wt)))
      .Backward();
  const Tensor ones(Shape{3, 2}, 1.0f);
  const Tensor want = FillAndAdd(
      Shape{4, 2}, {MatMulTransA(b, ones), MatMulTransA(a, ones)});
  EXPECT_TRUE(SameBits(wt.grad(), want)) << wt.grad().ToString();
}

TEST(GradientLandingTest, AdoptedUnpooledStorageNeverJoinsFreelists) {
  // Built outside any BufferPool scope, the adopted Scale result is
  // plain heap storage: released inside a scope it is freed, not
  // parked. Storage adopted inside a scope is pooled and is parked.
  Variable x = Leaf(Tensor(Shape{37}, 1.0f));
  ag::Sum(ag::Scale(x, 2.0f)).Backward();
  {
    BufferPool::Scope scope;
    const int64_t parked = BufferPool::ThreadPooledBytes();
    x.node()->ReleaseGrad();
    EXPECT_EQ(BufferPool::ThreadPooledBytes(), parked);

    ag::Sum(ag::Scale(x, 2.0f)).Backward();
    const int64_t before_release = BufferPool::ThreadPooledBytes();
    x.node()->ReleaseGrad();
    EXPECT_EQ(BufferPool::ThreadPooledBytes(),
              before_release + 37 * static_cast<int64_t>(sizeof(float)));
  }
}

}  // namespace
}  // namespace rfed
