#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"
#include "util/rng.h"

namespace rfed {
namespace {

using ::rfed::testing::PatternTensor;
using ::rfed::testing::RefConv2dBackward;
using ::rfed::testing::RefConv2dForward;

TEST(ElementwiseTest, AddSubMulScale) {
  Tensor a(Shape{3}, {1, 2, 3});
  Tensor b(Shape{3}, {4, 5, 6});
  EXPECT_TRUE(AllClose(Add(a, b), Tensor(Shape{3}, {5, 7, 9}), 0.0f));
  EXPECT_TRUE(AllClose(Sub(a, b), Tensor(Shape{3}, {-3, -3, -3}), 0.0f));
  EXPECT_TRUE(AllClose(Mul(a, b), Tensor(Shape{3}, {4, 10, 18}), 0.0f));
  EXPECT_TRUE(AllClose(Scale(a, 2.0f), Tensor(Shape{3}, {2, 4, 6}), 0.0f));
}

TEST(ActivationTest, ReluClampsNegatives) {
  Tensor x(Shape{4}, {-1, 0, 2, -3});
  Tensor y = Relu(x);
  EXPECT_TRUE(AllClose(y, Tensor(Shape{4}, {0, 0, 2, 0}), 0.0f));
}

TEST(ActivationTest, ReluBackwardMasks) {
  Tensor x(Shape{4}, {-1, 0, 2, 3});
  Tensor g(Shape{4}, {1, 1, 1, 1});
  Tensor dx = ReluBackward(g, x);
  EXPECT_TRUE(AllClose(dx, Tensor(Shape{4}, {0, 0, 1, 1}), 0.0f));
}

TEST(ActivationTest, TanhAndSigmoidValues) {
  Tensor x(Shape{2}, {0.0f, 1.0f});
  Tensor th = Tanh(x);
  EXPECT_NEAR(th.at(0), 0.0f, 1e-6f);
  EXPECT_NEAR(th.at(1), std::tanh(1.0f), 1e-6f);
  Tensor sg = Sigmoid(x);
  EXPECT_NEAR(sg.at(0), 0.5f, 1e-6f);
  EXPECT_NEAR(sg.at(1), 1.0f / (1.0f + std::exp(-1.0f)), 1e-6f);
}

TEST(MatMulTest, HandComputed) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_TRUE(AllClose(c, Tensor(Shape{2, 2}, {58, 64, 139, 154}), 1e-4f));
}

TEST(MatMulTest, TransposedVariantsAgree) {
  Rng rng(1);
  Tensor a = Tensor::Normal(Shape{4, 5}, 0, 1, &rng);
  Tensor b = Tensor::Normal(Shape{4, 6}, 0, 1, &rng);
  // MatMulTransA(a, b) == a^T b.
  Tensor expected = MatMul(Transpose2d(a), b);
  EXPECT_TRUE(AllClose(MatMulTransA(a, b), expected, 1e-4f));
  Tensor c = Tensor::Normal(Shape{6, 5}, 0, 1, &rng);
  // MatMulTransB(a, c) == a c^T with a [4,5], c [6,5].
  Tensor expected2 = MatMul(a, Transpose2d(c));
  EXPECT_TRUE(AllClose(MatMulTransB(a, c), expected2, 1e-4f));
}

TEST(MatMulTest, IdentityPreserves) {
  Tensor eye(Shape{3, 3});
  for (int i = 0; i < 3; ++i) eye.at2(i, i) = 1.0f;
  Tensor a = PatternTensor(Shape{3, 3});
  EXPECT_TRUE(AllClose(MatMul(eye, a), a, 1e-6f));
}

TEST(BroadcastTest, AddRowBroadcast) {
  Tensor x(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3}, {10, 20, 30});
  Tensor y = AddRowBroadcast(x, b);
  EXPECT_TRUE(
      AllClose(y, Tensor(Shape{2, 3}, {11, 22, 33, 14, 25, 36}), 0.0f));
}

TEST(ReductionTest, SumRowsAndMeanRows) {
  Tensor x(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(AllClose(SumRows(x), Tensor(Shape{3}, {5, 7, 9}), 1e-6f));
  EXPECT_TRUE(AllClose(MeanRows(x), Tensor(Shape{3}, {2.5, 3.5, 4.5}), 1e-6f));
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(2);
  Tensor logits = Tensor::Normal(Shape{5, 7}, 0, 3, &rng);
  Tensor p = SoftmaxRows(logits);
  for (int64_t r = 0; r < 5; ++r) {
    double sum = 0;
    for (int64_t c = 0; c < 7; ++c) {
      sum += p.at2(r, c);
      EXPECT_GT(p.at2(r, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(SoftmaxTest, InvariantToRowShift) {
  Tensor a(Shape{1, 3}, {1, 2, 3});
  Tensor b(Shape{1, 3}, {101, 102, 103});
  EXPECT_TRUE(AllClose(SoftmaxRows(a), SoftmaxRows(b), 1e-6f));
}

TEST(CrossEntropyTest, UniformLogitsGiveLogC) {
  Tensor logits(Shape{2, 4});
  const float loss = SoftmaxCrossEntropy(logits, {0, 3}, nullptr);
  EXPECT_NEAR(loss, std::log(4.0f), 1e-5f);
}

TEST(CrossEntropyTest, GradientSumsToZeroPerRow) {
  Rng rng(3);
  Tensor logits = Tensor::Normal(Shape{3, 5}, 0, 1, &rng);
  Tensor dlogits;
  SoftmaxCrossEntropy(logits, {1, 4, 0}, &dlogits);
  for (int64_t r = 0; r < 3; ++r) {
    double sum = 0;
    for (int64_t c = 0; c < 5; ++c) sum += dlogits.at2(r, c);
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
}

TEST(CrossEntropyTest, PerfectPredictionLossNearZero) {
  Tensor logits(Shape{1, 3}, {100.0f, 0.0f, 0.0f});
  EXPECT_NEAR(SoftmaxCrossEntropy(logits, {0}, nullptr), 0.0f, 1e-5f);
}

// The serial reference convolution, the conv block's oracle.

TEST(Conv2dTest, IdentityKernelCopiesInput) {
  // 1x1 kernel with weight 1 reproduces the input.
  Conv2dSpec spec{.in_channels = 1, .out_channels = 1, .kernel = 1,
                  .stride = 1, .pad = 0};
  Tensor x = PatternTensor(Shape{2, 1, 4, 4});
  Tensor w(Shape{1, 1}, {1.0f});
  Tensor b(Shape{1});
  Tensor y = RefConv2dForward(x, w, b, spec);
  EXPECT_TRUE(AllClose(y, x, 1e-6f));
}

TEST(Conv2dTest, HandComputed3x3) {
  // One 3x3 input, 3x3 averaging kernel, no pad: output = mean * 9.
  Conv2dSpec spec{.in_channels = 1, .out_channels = 1, .kernel = 3,
                  .stride = 1, .pad = 0};
  Tensor x(Shape{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor w = Tensor::Full(Shape{1, 9}, 1.0f);
  Tensor b(Shape{1}, {0.5f});
  Tensor y = RefConv2dForward(x, w, b, spec);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_NEAR(y.at(0), 45.5f, 1e-5f);
}

TEST(Conv2dTest, PaddingKeepsSize) {
  Conv2dSpec spec{.in_channels = 2, .out_channels = 3, .kernel = 5,
                  .stride = 1, .pad = 2};
  Rng rng(4);
  Tensor x = Tensor::Normal(Shape{2, 2, 8, 8}, 0, 1, &rng);
  Tensor w = Tensor::Normal(Shape{3, 2 * 25}, 0, 0.1f, &rng);
  Tensor b(Shape{3});
  Tensor y = RefConv2dForward(x, w, b, spec);
  EXPECT_EQ(y.shape(), Shape({2, 3, 8, 8}));
}

TEST(Conv2dTest, StrideReducesSize) {
  Conv2dSpec spec{.in_channels = 1, .out_channels = 1, .kernel = 3,
                  .stride = 2, .pad = 1};
  Tensor x(Shape{1, 1, 8, 8});
  Tensor w(Shape{1, 9});
  Tensor b(Shape{1});
  EXPECT_EQ(RefConv2dForward(x, w, b, spec).shape(), Shape({1, 1, 4, 4}));
}

TEST(Conv2dTest, BackwardMatchesFiniteDifferences) {
  Conv2dSpec spec{.in_channels = 2, .out_channels = 2, .kernel = 3,
                  .stride = 1, .pad = 1};
  Rng rng(5);
  Tensor x = Tensor::Normal(Shape{1, 2, 4, 4}, 0, 1, &rng);
  Tensor w = Tensor::Normal(Shape{2, 18}, 0, 0.5f, &rng);
  Tensor b = Tensor::Normal(Shape{2}, 0, 0.5f, &rng);
  // Loss = sum(conv(x, w, b)); upstream grad = ones.
  Tensor y = RefConv2dForward(x, w, b, spec);
  Tensor grad_out = Tensor::Full(y.shape(), 1.0f);
  Tensor dx, dw, db;
  RefConv2dBackward(grad_out, x, w, spec, &dx, &dw, &db);

  auto loss_at = [&](Tensor* target, int64_t i, float eps) {
    const float original = target->at(i);
    target->at(i) = original + eps;
    const float value = RefConv2dForward(x, w, b, spec).Sum();
    target->at(i) = original;
    return value;
  };
  const float eps = 1e-2f;
  for (int64_t i = 0; i < x.size(); i += 7) {
    const float numeric =
        (loss_at(&x, i, eps) - loss_at(&x, i, -eps)) / (2 * eps);
    EXPECT_NEAR(dx.at(i), numeric, 2e-2f) << "dx[" << i << "]";
  }
  for (int64_t i = 0; i < w.size(); i += 5) {
    const float numeric =
        (loss_at(&w, i, eps) - loss_at(&w, i, -eps)) / (2 * eps);
    EXPECT_NEAR(dw.at(i), numeric, 2e-2f) << "dw[" << i << "]";
  }
  for (int64_t i = 0; i < b.size(); ++i) {
    const float numeric =
        (loss_at(&b, i, eps) - loss_at(&b, i, -eps)) / (2 * eps);
    EXPECT_NEAR(db.at(i), numeric, 2e-2f) << "db[" << i << "]";
  }
}

/// The 2x2 pool runs through the conv block with this 1x1 identity conv.
Conv2dSpec IdentityConv() {
  return {.in_channels = 1, .out_channels = 1, .kernel = 1};
}

TEST(MaxPoolTest, ForwardSelectsMax) {
  Tensor x(Shape{1, 1, 2, 2}, {1, 5, 3, 2});
  std::vector<uint8_t> window;
  Tensor y = Conv2dBiasReluPoolForward(x, Tensor(Shape{1, 1}, {1.0f}),
                                       Tensor(Shape{1}), IdentityConv(),
                                       &window);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_EQ(y.at(0), 5.0f);
  EXPECT_EQ(window[0], 1);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  Tensor x(Shape{1, 1, 2, 2}, {1, 5, 3, 2});
  const Tensor w(Shape{1, 1}, {1.0f});
  std::vector<uint8_t> window;
  Tensor y = Conv2dBiasReluPoolForward(x, w, Tensor(Shape{1}),
                                       IdentityConv(), &window);
  Tensor grad_out(Shape{1, 1, 1, 1}, {2.5f});
  Tensor dx;
  Conv2dBiasReluPoolBackward(grad_out, y, window, x, w, IdentityConv(), &dx,
                             nullptr, nullptr);
  EXPECT_TRUE(AllClose(dx, Tensor(Shape{1, 1, 2, 2}, {0, 2.5f, 0, 0}), 0.0f));
}

// ---- Branch-free activations against the scalar loops they replaced ----

/// Runs each case under every table the machine can run, so each ISA
/// table is pinned.
class BranchFreeTest : public ::testing::TestWithParam<KernelIsa> {
 protected:
  void SetUp() override {
    KernelOptions o;
    o.isa = GetParam();
    SetKernelOptions(o);
  }
  void TearDown() override { SetKernelOptions(KernelOptions{}); }
};

INSTANTIATE_TEST_SUITE_P(Isas, BranchFreeTest,
                         ::testing::ValuesIn(
                             rfed::testing::AvailableKernelIsas()),
                         [](const auto& info) {
                           return std::string(KernelIsaName(info.param));
                         });

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

void ExpectSameBits(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (int64_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameBits(got.at(i), want.at(i)))
        << what << " element " << i << ": " << got.at(i) << " vs "
        << want.at(i);
  }
}

/// Values of random sign with the awkward cases mixed in: NaN, ±0, ±Inf,
/// denormals, and values rounded to quarters so that equal neighbours
/// (max-pool ties) are common.
Tensor Awkward(Shape shape, uint64_t seed) {
  const float kSpecial[] = {std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            0.0f,
                            -0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min()};
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    const double u = rng.Uniform(0, 1);
    if (u < 0.25) {
      t.at(i) = kSpecial[static_cast<size_t>(rng.Uniform(0, 1) * 8) % 8];
    } else if (u < 0.5) {
      t.at(i) = std::round(static_cast<float>(rng.Normal(0, 1)) * 4) / 4;
    } else {
      t.at(i) = static_cast<float>(rng.Normal(0, 1));
    }
  }
  return t;
}

// Odd counts leave a tail after every 8-wide SIMD block.
constexpr int64_t kOddCounts[] = {1, 7, 9, 31, 1001};

TEST_P(BranchFreeTest, ReluMatchesStdMaxBitwise) {
  for (int64_t n : kOddCounts) {
    const Tensor x = Awkward(Shape{n}, 100 + n);
    Tensor want(x.shape());
    for (int64_t i = 0; i < n; ++i) want.at(i) = std::max(0.0f, x.at(i));
    ExpectSameBits(Relu(x), want, "relu n=" + std::to_string(n));
    Tensor in_place = x;
    ReluKernel(in_place.data(), n, in_place.data());
    ExpectSameBits(in_place, want, "in-place relu n=" + std::to_string(n));
  }
}

TEST_P(BranchFreeTest, ReluBackwardMatchesScalarMaskBitwise) {
  for (int64_t n : kOddCounts) {
    const Tensor x = Awkward(Shape{n}, 200 + n);
    const Tensor g = Awkward(Shape{n}, 300 + n);
    Tensor want = g;
    for (int64_t i = 0; i < n; ++i) {
      if (x.at(i) <= 0.0f) want.at(i) = 0.0f;
    }
    ExpectSameBits(ReluBackward(g, x), want,
                   "relu backward n=" + std::to_string(n));
  }
}

TEST_P(BranchFreeTest, LinearBiasReluMatchesScalarEpilogueAndMaskBitwise) {
  // 5 x 7 outputs: an odd count, so the SIMD tail runs too.
  Tensor x = Awkward(Shape{5, 3}, 401);
  for (int64_t i = 0; i < x.size(); ++i) {
    if (!std::isfinite(x.at(i))) x.at(i) = 0.5f;  // finite GEMM operands
  }
  const Tensor w = PatternTensor(Shape{3, 7}, 0.8f);
  Tensor bias = Awkward(Shape{7}, 402);
  bias.at(0) = std::numeric_limits<float>::quiet_NaN();  // a NaN column
  const Tensor y = LinearBiasReluForward(x, w, bias);
  Tensor want = MatMul(x, w);
  for (int64_t r = 0; r < 5; ++r) {
    for (int64_t c = 0; c < 7; ++c) {
      want.at2(r, c) = std::max(0.0f, want.at2(r, c) + bias.at(c));
    }
  }
  ExpectSameBits(y, want, "fused forward");

  const Tensor g = Awkward(Shape{5, 7}, 403);
  Tensor g_pre = g;
  for (int64_t i = 0; i < g_pre.size(); ++i) {
    if (y.at(i) <= 0.0f) g_pre.at(i) = 0.0f;
  }
  Tensor dx, dw, db;
  LinearBiasReluBackward(g, y, x, w, &dx, &dw, &db);
  ExpectSameBits(dx, MatMulTransB(g_pre, w), "dx");
  ExpectSameBits(dw, MatMulTransA(x, g_pre), "dw");
  ExpectSameBits(db, SumRows(g_pre), "db");
}

/// The max-pool loops written out: an absolute argmax per output, first
/// strict maximum wins.
Tensor RefMaxPool(const Tensor& x, std::vector<int64_t>* argmax) {
  const int64_t batch = x.dim(0), ch = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor out(Shape{batch, ch, h / 2, w / 2});
  argmax->assign(static_cast<size_t>(out.size()), 0);
  int64_t oi = 0;
  for (int64_t p = 0; p < batch * ch; ++p) {
    const float* plane = x.data() + p * h * w;
    for (int64_t oy = 0; oy < h / 2; ++oy) {
      for (int64_t ox = 0; ox < w / 2; ++ox, ++oi) {
        int64_t best = 2 * oy * w + 2 * ox;
        const int64_t cand[3] = {best + 1, best + w, best + w + 1};
        for (int64_t idx : cand) {
          if (plane[idx] > plane[best]) best = idx;
        }
        out.at(oi) = plane[best];
        (*argmax)[static_cast<size_t>(oi)] = p * h * w + best;
      }
    }
  }
  return out;
}

TEST_P(BranchFreeTest, ConvBlockPoolMatchesScalarReferenceBitwise) {
  // The round's pool shapes (after conv1 and conv2) plus odd output
  // sides, over NaN, ±0 and frequent ties, through the conv block with
  // one channel per plane and a 1x1 identity conv: each pooled output is
  // the scalar pool of max(0, x), and its window byte names the argmax.
  const Shape shapes[] = {Shape{24, 4, 12, 12}, Shape{150, 8, 6, 6},
                          Shape{3, 2, 6, 10}, Shape{1, 1, 2, 2}};
  uint64_t seed = 500;
  for (const Shape& shape : shapes) {
    const std::string what = shape.ToString();
    const int64_t h = shape.dim(2), w = shape.dim(3);
    const Tensor x = Awkward(shape, ++seed)
                         .Reshaped(Shape{shape.dim(0) * shape.dim(1), 1, h, w});
    Tensor clamped(x.shape());
    for (int64_t i = 0; i < x.size(); ++i) {
      clamped.at(i) = std::max(0.0f, x.at(i));
    }
    std::vector<int64_t> argmax;
    const Tensor want = RefMaxPool(clamped, &argmax);
    std::vector<uint8_t> window;
    const Tensor y =
        Conv2dBiasReluPoolForward(x, Tensor(Shape{1, 1}, {1.0f}),
                                  Tensor(Shape{1}), IdentityConv(), &window);
    ExpectSameBits(y, want, "forward " + what);

    ASSERT_EQ(window.size(), argmax.size());
    for (size_t i = 0; i < window.size(); ++i) {
      const int64_t row = static_cast<int64_t>(i) / (w / 2);
      const int64_t ox = static_cast<int64_t>(i) % (w / 2);
      const int64_t base = 2 * row * w + 2 * ox;
      const int64_t k = window[i];
      ASSERT_LT(k, 4);
      ASSERT_EQ(base + (k / 2) * w + k % 2, argmax[i])
          << what << " window " << i;
    }
  }
}

TEST(GatherScatterTest, GatherRowsSelects) {
  Tensor table(Shape{3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor out = GatherRows(table, {2, 0, 2});
  EXPECT_TRUE(AllClose(out, Tensor(Shape{3, 2}, {5, 6, 1, 2, 5, 6}), 0.0f));
}

TEST(GatherScatterTest, ScatterAddAccumulatesDuplicates) {
  Tensor grad(Shape{3, 2}, {1, 1, 2, 2, 3, 3});
  Tensor table_grad(Shape{3, 2});
  ScatterAddRows(grad, {2, 0, 2}, &table_grad);
  EXPECT_TRUE(AllClose(table_grad,
                       Tensor(Shape{3, 2}, {2, 2, 0, 0, 4, 4}), 0.0f));
}

TEST(SliceConcatTest, SliceRowsExtracts) {
  Tensor x(Shape{3, 2}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(AllClose(SliceRows(x, 1, 3),
                       Tensor(Shape{2, 2}, {3, 4, 5, 6}), 0.0f));
}

TEST(SliceConcatTest, ConcatRowsStacks) {
  Tensor a(Shape{1, 2}, {1, 2});
  Tensor b(Shape{2, 2}, {3, 4, 5, 6});
  EXPECT_TRUE(AllClose(ConcatRows(a, b),
                       Tensor(Shape{3, 2}, {1, 2, 3, 4, 5, 6}), 0.0f));
}

TEST(TransposeTest, TwiceIsIdentity) {
  Tensor a = PatternTensor(Shape{3, 5});
  EXPECT_TRUE(AllClose(Transpose2d(Transpose2d(a)), a, 0.0f));
}

}  // namespace
}  // namespace rfed
