// Bit-identity suite for the blocked/threaded kernel layer
// (tensor/kernels.h). Every test compares the optimized kernels against
// the retained naive references with EXPECT_EQ on floats — not
// EXPECT_NEAR — because the layer's contract is *exact* equality for
// every block size and thread count (docs/KERNELS.md). The final test
// pins that contract end to end: a federated run's global model must be
// byte-identical across kernel_threads in {1, 2, 4}.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "fl/fedavg.h"
#include "fl/trainer.h"
#include "nn/models.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/kernels.h"
#include "tensor/kernels_dispatch.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"
#include "util/rng.h"

namespace rfed {
namespace {

using ::rfed::testing::MaxGradCheckError;

Variable Leaf(Tensor t) { return Variable(std::move(t), true); }

/// Restores the default kernel options when the test ends, so option
/// overrides (tiny blocks, forced threading) never leak across tests.
class KernelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetKernelOptions(KernelOptions{});
  }
};

/// Options with blocks small enough that the kSizes below exercise full
/// tiles, remainder rows/columns and several column and row chunks, with
/// every product fanned out to the pool.
KernelOptions TinyBlocks(int threads) {
  KernelOptions o;
  o.threads = threads;
  o.block_m = 8;
  o.block_n = 16;
  o.parallel_min_flops = 0;
  return o;
}

std::vector<float> Pattern(int64_t n, float scale, float phase) {
  std::vector<float> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    // sin ramp: non-degenerate, mixed signs, a sprinkling of exact zeros
    // every 8th element to also cross the references' zero-skip path.
    v[static_cast<size_t>(i)] =
        (i % 8 == 3) ? 0.0f
                     : scale * std::sin(0.7f * static_cast<float>(i) + phase);
  }
  return v;
}

// From one row or column to a 130 x 130 B of 67 KB; 1, 7 and 17 sit off
// every tile width, 64 and 65 on and one past a 16-wide tile.
constexpr int64_t kSizes[] = {1, 7, 17, 64, 65, 130};
constexpr int kThreadCounts[] = {1, 2, 4};

TEST_F(KernelTest, GemmAddMatchesReferenceBitwise) {
  for (int threads : kThreadCounts) {
    SetKernelOptions(TinyBlocks(threads));
    for (int64_t m : kSizes) {
      for (int64_t k : kSizes) {
        for (int64_t n : kSizes) {
          const auto a = Pattern(m * k, 1.0f, 0.1f);
          const auto b = Pattern(k * n, 0.5f, 1.3f);
          // Nonzero initial C: the kernel accumulates, never assigns.
          auto c_ref = Pattern(m * n, 0.25f, 2.7f);
          auto c_opt = c_ref;
          ref::GemmAdd(a.data(), b.data(), m, k, n, c_ref.data());
          GemmAdd(a.data(), b.data(), m, k, n, c_opt.data());
          ASSERT_EQ(0, std::memcmp(c_ref.data(), c_opt.data(),
                                   c_ref.size() * sizeof(float)))
              << "threads=" << threads << " m=" << m << " k=" << k
              << " n=" << n;
        }
      }
    }
  }
}

TEST_F(KernelTest, GemmTransAAddMatchesReferenceBitwise) {
  for (int threads : kThreadCounts) {
    SetKernelOptions(TinyBlocks(threads));
    for (int64_t m : kSizes) {
      for (int64_t k : kSizes) {
        for (int64_t n : kSizes) {
          const auto a = Pattern(m * k, 0.8f, 0.4f);
          const auto b = Pattern(m * n, 0.6f, 1.9f);
          auto c_ref = Pattern(k * n, 0.3f, 3.1f);
          auto c_opt = c_ref;
          ref::GemmTransAAdd(a.data(), b.data(), m, k, n, c_ref.data());
          GemmTransAAdd(a.data(), b.data(), m, k, n, c_opt.data());
          ASSERT_EQ(0, std::memcmp(c_ref.data(), c_opt.data(),
                                   c_ref.size() * sizeof(float)))
              << "threads=" << threads << " m=" << m << " k=" << k
              << " n=" << n;
        }
      }
    }
  }
}

TEST_F(KernelTest, GemmTransBAssignMatchesReferenceBitwise) {
  for (int threads : kThreadCounts) {
    SetKernelOptions(TinyBlocks(threads));
    for (int64_t m : kSizes) {
      for (int64_t n : kSizes) {
        for (int64_t k : kSizes) {
          const auto a = Pattern(m * n, 0.9f, 0.2f);
          const auto b = Pattern(k * n, 0.7f, 1.1f);
          // Assign semantics: garbage in C must be overwritten.
          auto c_ref = Pattern(m * k, 99.0f, 0.0f);
          auto c_opt = Pattern(m * k, -37.0f, 1.0f);
          ref::GemmTransBAssign(a.data(), b.data(), m, n, k, c_ref.data());
          GemmTransBAssign(a.data(), b.data(), m, n, k, c_opt.data());
          ASSERT_EQ(0, std::memcmp(c_ref.data(), c_opt.data(),
                                   c_ref.size() * sizeof(float)))
              << "threads=" << threads << " m=" << m << " n=" << n
              << " k=" << k;
        }
      }
    }
  }
}

TEST_F(KernelTest, DefaultOptionsAlsoMatchReference) {
  // Same check at production block sizes (the tiny blocks above stress
  // edges; this covers the shipped configuration on a mid-size product).
  for (int threads : kThreadCounts) {
    KernelOptions o;
    o.threads = threads;
    o.parallel_min_flops = 0;
    SetKernelOptions(o);
    const int64_t m = 65, k = 131, n = 197;  // off every block boundary
    const auto a = Pattern(m * k, 1.0f, 0.5f);
    const auto b = Pattern(k * n, 1.0f, 1.5f);
    auto c_ref = Pattern(m * n, 0.1f, 2.5f);
    auto c_opt = c_ref;
    ref::GemmAdd(a.data(), b.data(), m, k, n, c_ref.data());
    GemmAdd(a.data(), b.data(), m, k, n, c_opt.data());
    ASSERT_EQ(0, std::memcmp(c_ref.data(), c_opt.data(),
                             c_ref.size() * sizeof(float)))
        << "threads=" << threads;
  }
}

// ---- SIMD dispatch: every ISA x tile candidate x thread count ----

/// The ISA tables under test: the portable baseline always, plus the
/// AVX2 table when this machine can run it. Forcing kAvx2 on a machine
/// without the ISA aborts, so the list is probed at runtime.
std::vector<KernelIsa> TestableIsas() {
  std::vector<KernelIsa> isas{KernelIsa::kGeneric};
  if (KernelAvx2Available()) isas.push_back(KernelIsa::kAvx2);
  return isas;
}

TEST_F(KernelTest, EveryIsaTileAndThreadCountMatchesReference) {
  // Each ISA table x a spread of TileConfigs x threads {1, 2, 4} must
  // reproduce the reference bytes exactly. Shapes are chosen off
  // every tile boundary (odd m/k/n) plus the tile-exact 64 row count,
  // so full tiles, remainder rows, and remainder columns all execute.
  struct Case { int64_t m, k, n; };
  const Case cases[] = {{64, 75, 130}, {65, 131, 197}, {6, 16, 33}};
  // GemmAdd reads only block_n: the default (one chunk at every case's
  // n) and a 48-column chunk, which splits 130 and 197 into several.
  const TileConfig kGemmAddTiles[] = {{64, 1024}, {64, 48}};
  // GemmTransBAssign's interleaved path chunks block_m rows of A.
  const TileConfig kGemmTransBTiles[] = {{64, 1024}, {16, 1024}, {256, 1024}};
  for (KernelIsa isa : TestableIsas()) {
    for (const TileConfig& tile : kGemmAddTiles) {
      for (int threads : kThreadCounts) {
        KernelOptions o;
        o.threads = threads;
        o.isa = isa;
        o.block_m = tile.block_m;
        o.block_n = tile.block_n;
        o.parallel_min_flops = 0;
        SetKernelOptions(o);
        for (const Case& cs : cases) {
          const auto a = Pattern(cs.m * cs.k, 1.0f, 0.2f);
          const auto b = Pattern(cs.k * cs.n, 0.7f, 1.4f);
          auto c_ref = Pattern(cs.m * cs.n, 0.3f, 2.2f);
          auto c_opt = c_ref;
          ref::GemmAdd(a.data(), b.data(), cs.m, cs.k, cs.n, c_ref.data());
          GemmAdd(a.data(), b.data(), cs.m, cs.k, cs.n, c_opt.data());
          ASSERT_EQ(0, std::memcmp(c_ref.data(), c_opt.data(),
                                   c_ref.size() * sizeof(float)))
              << "GemmAdd isa=" << KernelIsaName(isa) << " tile="
              << tile.block_m << "/" << tile.block_n
              << " threads=" << threads << " m=" << cs.m << " k=" << cs.k
              << " n=" << cs.n;
        }
      }
    }
    for (const TileConfig& tile : kGemmTransBTiles) {
      for (int threads : kThreadCounts) {
        KernelOptions o;
        o.threads = threads;
        o.isa = isa;
        o.block_m = tile.block_m;
        o.block_n = tile.block_n;
        o.parallel_min_flops = 0;
        SetKernelOptions(o);
        for (const Case& cs : cases) {
          // TransB shape triple is (m, n, k): m rows of A[m,n], k rows
          // of B[k,n], C[m,k] assigned.
          const auto a = Pattern(cs.m * cs.n, 0.9f, 0.5f);
          const auto b = Pattern(cs.k * cs.n, 0.6f, 1.8f);
          auto c_ref = Pattern(cs.m * cs.k, 55.0f, 0.0f);
          auto c_opt = Pattern(cs.m * cs.k, -11.0f, 1.0f);
          ref::GemmTransBAssign(a.data(), b.data(), cs.m, cs.n, cs.k,
                                c_ref.data());
          GemmTransBAssign(a.data(), b.data(), cs.m, cs.n, cs.k,
                           c_opt.data());
          ASSERT_EQ(0, std::memcmp(c_ref.data(), c_opt.data(),
                                   c_ref.size() * sizeof(float)))
              << "GemmTransB isa=" << KernelIsaName(isa) << " tile="
              << tile.block_m << "/" << tile.block_n
              << " threads=" << threads << " m=" << cs.m << " n=" << cs.n
              << " k=" << cs.k;
        }
      }
    }
  }
}

/// A with exact zeros and negative zeros among its values: the
/// references skip both, the tiles fuse them in.
std::vector<float> PatternWithZeros(int64_t n, float scale, float phase) {
  std::vector<float> v = Pattern(n, scale, phase);
  for (int64_t i = 5; i < n; i += 8) v[static_cast<size_t>(i)] = -0.0f;
  return v;
}

TEST_F(KernelTest, GemmsAtTheShapeRuleBoundaryMatchReference) {
  constexpr int64_t kRows = internal::kInPlaceMaxRows;
  for (KernelIsa isa : TestableIsas()) {
    for (int threads : {1, 4}) {
      KernelOptions o;
      o.threads = threads;
      o.isa = isa;
      o.parallel_min_flops = 0;
      SetKernelOptions(o);
      for (int64_t m : {kRows, kRows + 1}) {
        for (int64_t n : {1, 10, 17}) {
          // A short contraction keeps B in the first cache level; a long
          // one makes B larger than 64 KB.
          const int64_t long_k = 16384 / n + 1;
          for (int64_t k : {int64_t{33}, long_k}) {
            const std::string where =
                std::string("isa=") + KernelIsaName(isa) +
                " threads=" + std::to_string(threads) + " m=" +
                std::to_string(m) + " k=" + std::to_string(k) +
                " n=" + std::to_string(n);
            const auto a = PatternWithZeros(m * k, 1.0f, 0.6f);
            const auto b = Pattern(k * n, 0.5f, 1.7f);
            auto c_ref = Pattern(m * n, 0.25f, 2.9f);
            auto c_opt = c_ref;
            ref::GemmAdd(a.data(), b.data(), m, k, n, c_ref.data());
            GemmAdd(a.data(), b.data(), m, k, n, c_opt.data());
            ASSERT_EQ(0, std::memcmp(c_ref.data(), c_opt.data(),
                                     c_ref.size() * sizeof(float)))
                << "GemmAdd " << where;
            // GemmTransAAdd with the same A: C[k,n] += A^T B[m,n].
            const auto bt = Pattern(m * n, 0.7f, 0.9f);
            auto t_ref = Pattern(k * n, 0.3f, 1.3f);
            auto t_opt = t_ref;
            ref::GemmTransAAdd(a.data(), bt.data(), m, k, n, t_ref.data());
            GemmTransAAdd(a.data(), bt.data(), m, k, n, t_opt.data());
            ASSERT_EQ(0, std::memcmp(t_ref.data(), t_opt.data(),
                                     t_ref.size() * sizeof(float)))
                << "GemmTransAAdd " << where;
            // GemmTransBAssign C[m,k] = A[m,n] B[k,n]^T over garbage C:
            // m alone picks the small or the interleaved path.
            EXPECT_EQ(internal::GemmTransBSmall(m), m == kRows) << where;
            const auto az = PatternWithZeros(m * n, 0.9f, 0.2f);
            const auto bb = Pattern(k * n, 0.6f, 2.4f);
            auto b_ref = Pattern(m * k, 55.0f, 0.0f);
            auto b_opt = Pattern(m * k, -11.0f, 1.0f);
            ref::GemmTransBAssign(az.data(), bb.data(), m, n, k,
                                  b_ref.data());
            GemmTransBAssign(az.data(), bb.data(), m, n, k, b_opt.data());
            ASSERT_EQ(0, std::memcmp(b_ref.data(), b_opt.data(),
                                     b_ref.size() * sizeof(float)))
                << "GemmTransBAssign " << where;
          }
        }
      }
      // GemmAdd at large B: the 3-channel MLP's fc1 at batch 24, the
      // paper-scale CIFAR fc layer, and a 512-float row stride, a power
      // of two that maps B's rows onto few cache sets.
      struct Case { int64_t m, k, n; };
      for (const Case& cs : {Case{24, 432, 64}, Case{32, 1600, 384},
                             Case{17, 72, 512}}) {
        const auto a = PatternWithZeros(cs.m * cs.k, 1.0f, 0.6f);
        const auto b = Pattern(cs.k * cs.n, 0.5f, 1.7f);
        auto c_ref = Pattern(cs.m * cs.n, 0.25f, 2.9f);
        auto c_opt = c_ref;
        ref::GemmAdd(a.data(), b.data(), cs.m, cs.k, cs.n, c_ref.data());
        GemmAdd(a.data(), b.data(), cs.m, cs.k, cs.n, c_opt.data());
        ASSERT_EQ(0, std::memcmp(c_ref.data(), c_opt.data(),
                                 c_ref.size() * sizeof(float)))
            << "GemmAdd isa=" << KernelIsaName(isa) << " threads=" << threads
            << " m=" << cs.m << " k=" << cs.k << " n=" << cs.n;
      }
    }
  }
}

TEST_F(KernelTest, GemmTransAAddMatchesReferenceOnEveryIsa) {
  for (KernelIsa isa : TestableIsas()) {
    for (int threads : kThreadCounts) {
      KernelOptions o = TinyBlocks(threads);
      o.isa = isa;
      SetKernelOptions(o);
      const int64_t m = 33, k = 14, n = 65;
      const auto a = Pattern(m * k, 0.8f, 0.4f);
      const auto b = Pattern(m * n, 0.6f, 1.9f);
      auto c_ref = Pattern(k * n, 0.3f, 3.1f);
      auto c_opt = c_ref;
      ref::GemmTransAAdd(a.data(), b.data(), m, k, n, c_ref.data());
      GemmTransAAdd(a.data(), b.data(), m, k, n, c_opt.data());
      ASSERT_EQ(0, std::memcmp(c_ref.data(), c_opt.data(),
                               c_ref.size() * sizeof(float)))
          << "isa=" << KernelIsaName(isa) << " threads=" << threads;
    }
  }
}

TEST_F(KernelTest, IsaDispatchReportsActiveTable) {
  // kAuto resolves to the best table the machine supports; forcing
  // kGeneric always works and reports as such.
  KernelOptions o;
  o.isa = KernelIsa::kGeneric;
  SetKernelOptions(o);
  EXPECT_EQ(ActiveKernelIsa(), KernelIsa::kGeneric);
  EXPECT_STREQ(KernelIsaName(ActiveKernelIsa()), "generic");
  SetKernelOptions(KernelOptions{});  // kAuto
  if (KernelAvx2Available()) {
    EXPECT_EQ(ActiveKernelIsa(), KernelIsa::kAvx2);
    EXPECT_STREQ(KernelIsaName(ActiveKernelIsa()), "avx2");
  } else {
    EXPECT_EQ(ActiveKernelIsa(), KernelIsa::kGeneric);
  }
}

// ---- Element-wise kernels ----

/// The value the machine's floating point returns for an invalid
/// operation (Inf - Inf), its default NaN.
float DefaultNaN() {
  volatile float inf = std::numeric_limits<float>::infinity();
  return inf - inf;
}

/// Mixed-sign values with +-0, +-Inf, NaN, denormals and values near
/// the float limits sprinkled in. The only NaN is the default NaN: when
/// both operands of an add are NaN the result is one of them, and the
/// compiler may commute an add or a multiply, so distinct NaN inputs
/// would make the payload depend on operand order rather than on the
/// kernel.
std::vector<float> SpecialPattern(int64_t n, int salt) {
  const float inf = std::numeric_limits<float>::infinity();
  const float special[] = {0.0f,    -0.0f,  inf,      -inf,
                           DefaultNaN(), 1e-40f, -3e-39f, 1e-45f,
                           3.0e38f, -3.0e38f, 1.0f,   -2.5f};
  std::vector<float> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    v[static_cast<size_t>(i)] =
        (i * 7 + salt) % 5 == 0
            ? special[static_cast<size_t>((i + salt) % 12)]
            : 0.8f * std::sin(0.37f * static_cast<float>(i) +
                              static_cast<float>(salt));
  }
  return v;
}

bool SameBytes(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0);
}

// Each kernel against the scalar loop it replaced (the loops below are
// the old Tensor / SumRows / optimizer bodies), on every table, at
// lengths around the vector width and the served MLP's parameter count.
TEST_F(KernelTest, ElementwiseKernelsMatchScalarLoopsBitwise) {
  const int64_t kLengths[] = {0, 1, 7, 8, 9, 31, 11690};
  for (KernelIsa isa : TestableIsas()) {
    for (int threads : {1, 4}) {
      KernelOptions o;
      o.isa = isa;
      o.threads = threads;
      SetKernelOptions(o);
      for (int64_t n : kLengths) {
        const std::string where = std::string("isa=") + KernelIsaName(isa) +
                                  " threads=" + std::to_string(threads) +
                                  " n=" + std::to_string(n);
        const auto x0 = SpecialPattern(n, 1);
        const auto y = SpecialPattern(n, 2);
        for (float s : {-0.75f, 0.0f}) {
          auto want = x0, got = x0;
          for (int64_t i = 0; i < n; ++i) want[i] += y[i];
          AddKernel(got.data(), y.data(), n);
          EXPECT_TRUE(SameBytes(want, got)) << "add " << where;
          want = x0, got = x0;
          for (int64_t i = 0; i < n; ++i) want[i] += want[i];
          AddKernel(got.data(), got.data(), n);
          EXPECT_TRUE(SameBytes(want, got)) << "add aliased " << where;
          want = x0, got = x0;
          for (int64_t i = 0; i < n; ++i) want[i] -= y[i];
          SubKernel(got.data(), y.data(), n);
          EXPECT_TRUE(SameBytes(want, got)) << "sub " << where;
          want = x0, got = x0;
          for (float& v : want) v *= s;
          ScaleKernel(got.data(), s, n);
          EXPECT_TRUE(SameBytes(want, got)) << "scale " << s << " " << where;
          want = x0, got = x0;
          for (int64_t i = 0; i < n; ++i) want[i] += s * y[i];
          AxpyKernel(got.data(), s, y.data(), n);
          EXPECT_TRUE(SameBytes(want, got)) << "axpy " << s << " " << where;
        }
        for (float v : {0.0f, -0.0f, DefaultNaN(), 1e-40f}) {
          std::vector<float> want(static_cast<size_t>(n), v);
          auto got = x0;
          FillKernel(got.data(), v, n);
          EXPECT_TRUE(SameBytes(want, got)) << "fill " << v << " " << where;
        }
        for (int64_t rows : {1, 3, 8}) {
          const auto x = SpecialPattern(rows * n, 3);
          auto want = SpecialPattern(n, 4), got = want;
          for (int64_t r = 0; r < rows; ++r) {
            for (int64_t c = 0; c < n; ++c) want[c] += x[r * n + c];
          }
          SumRowsKernel(x.data(), rows, n, got.data());
          EXPECT_TRUE(SameBytes(want, got))
              << "sum_rows rows=" << rows << " " << where;
        }
        const auto g = SpecialPattern(n, 5);
        const auto v0 = SpecialPattern(n, 6);
        for (float wd : {0.0f, 1e-4f}) {
          for (float mom : {0.0f, 0.9f}) {
            const SgdStep st{0.05f, wd, mom};
            auto w_want = x0, w_got = x0, v_want = v0, v_got = v0;
            for (int64_t j = 0; j < n; ++j) {
              if (mom == 0.0f) {
                w_want[j] -= st.lr * (g[j] + wd * w_want[j]);
              } else {
                v_want[j] = mom * v_want[j] + g[j] + wd * w_want[j];
                w_want[j] -= st.lr * v_want[j];
              }
            }
            SgdStepKernel(w_got.data(), g.data(),
                          mom == 0.0f ? nullptr : v_got.data(), n, st);
            EXPECT_TRUE(SameBytes(w_want, w_got) && SameBytes(v_want, v_got))
                << "sgd wd=" << wd << " momentum=" << mom << " " << where;
          }
        }
        const RmsPropStep rp{0.01f, 0.99f, 1e-8f};
        auto w_want = x0, w_got = x0;
        auto ms_want = SpecialPattern(n, 7);
        for (float& m : ms_want) m = std::fabs(m);
        auto ms_got = ms_want;
        for (int64_t j = 0; j < n; ++j) {
          const float gj = g[j];
          ms_want[j] = rp.alpha * ms_want[j] + (1.0f - rp.alpha) * gj * gj;
          w_want[j] -= rp.lr * gj / (std::sqrt(ms_want[j]) + rp.eps);
        }
        RmsPropStepKernel(w_got.data(), g.data(), ms_got.data(), n, rp);
        EXPECT_TRUE(SameBytes(w_want, w_got) && SameBytes(ms_want, ms_got))
            << "rmsprop " << where;
      }
    }
  }
}

// ---- Convolution ----

std::vector<ConvKernelShape> ConvCases() {
  std::vector<ConvKernelShape> cases;
  // batch, cin, h, w, cout, kernel, stride, pad
  cases.push_back({2, 1, 8, 8, 3, 3, 1, 1});   // MNIST-ish same-pad
  cases.push_back({3, 2, 7, 9, 4, 3, 2, 0});   // strided, non-square, valid
  cases.push_back({1, 3, 11, 11, 2, 5, 1, 2}); // 5x5 kernel, wide pad
  cases.push_back({4, 2, 6, 6, 1, 1, 1, 0});   // pointwise 1x1
  cases.push_back({2, 1, 5, 5, 2, 3, 3, 1});   // stride > 1 with pad
  cases.push_back({2, 3, 7, 10, 9, 3, 1, 0});  // valid conv, cout > 8
  // The CIFAR round's own shapes: conv1 and conv2 of the workload CNN,
  // at one image, an odd batch, the training batch, a map_sync batch
  // and a batch larger than any the round runs.
  for (int64_t batch : {1, 7, 24, 150, 256}) {
    cases.push_back({batch, 3, 12, 12, 4, 5, 1, 2});
    cases.push_back({batch, 4, 6, 6, 8, 5, 1, 2});
  }
  return cases;
}

std::string ConvName(const ConvKernelShape& s) {
  return std::to_string(s.batch) + "x" + std::to_string(s.in_channels) +
         "x" + std::to_string(s.height) + "x" + std::to_string(s.width) +
         "->" + std::to_string(s.out_channels) + " k" +
         std::to_string(s.kernel) + " s" + std::to_string(s.stride) + " p" +
         std::to_string(s.pad);
}

/// Every kernel configuration a conv must be exact under: tiny and
/// default blocks, the portable table and auto dispatch, 1, 2 and 4
/// threads.
std::vector<KernelOptions> ConvOptionGrid() {
  std::vector<KernelOptions> grid;
  for (bool tiny : {true, false}) {
    for (KernelIsa isa : {KernelIsa::kGeneric, KernelIsa::kAuto}) {
      for (int threads : kThreadCounts) {
        KernelOptions o = tiny ? TinyBlocks(threads) : KernelOptions{};
        o.threads = threads;
        o.isa = isa;
        grid.push_back(o);
      }
    }
  }
  return grid;
}

std::string OptionsName(const KernelOptions& o) {
  return std::string(KernelIsaName(o.isa)) + " threads=" +
         std::to_string(o.threads) + " block_n=" + std::to_string(o.block_n);
}

TEST_F(KernelTest, Conv2dForwardMatchesReferenceBitwise) {
  for (const ConvKernelShape& s : ConvCases()) {
    const auto x = Pattern(s.batch * s.in_channels * s.height * s.width,
                           1.0f, 0.3f);
    const auto w = Pattern(s.out_channels * s.Patch(), 0.5f, 1.7f);
    const auto bias = Pattern(s.out_channels, 0.2f, 0.9f);
    std::vector<float> out_ref(
        static_cast<size_t>(s.batch * s.out_channels * s.OutArea()), 0.0f);
    ref::Conv2dForwardKernel(x.data(), w.data(), bias.data(), s,
                             out_ref.data());
    for (const KernelOptions& o : ConvOptionGrid()) {
      SetKernelOptions(o);
      std::vector<float> out_opt(out_ref.size(), 0.0f);
      Conv2dForwardKernel(x.data(), w.data(), bias.data(), s, out_opt.data());
      ASSERT_EQ(0, std::memcmp(out_ref.data(), out_opt.data(),
                               out_ref.size() * sizeof(float)))
          << ConvName(s) << " " << OptionsName(o);
    }
  }
}

TEST_F(KernelTest, Conv2dBackwardMatchesReferenceBitwise) {
  for (const ConvKernelShape& s : ConvCases()) {
    const auto x = Pattern(s.batch * s.in_channels * s.height * s.width,
                           1.0f, 0.6f);
    const auto w = Pattern(s.out_channels * s.Patch(), 0.5f, 2.1f);
    const auto go = Pattern(s.batch * s.out_channels * s.OutArea(),
                            0.4f, 1.2f);
    const size_t dx_size =
        static_cast<size_t>(s.batch * s.in_channels * s.height * s.width);
    const size_t dw_size = static_cast<size_t>(s.out_channels * s.Patch());
    const size_t db_size = static_cast<size_t>(s.out_channels);
    std::vector<float> dx_ref(dx_size, 0.0f);
    std::vector<float> dw_ref(dw_size, 0.0f);
    std::vector<float> db_ref(db_size, 0.0f);
    ref::Conv2dBackwardKernel(go.data(), x.data(), w.data(), s,
                              dx_ref.data(), dw_ref.data(), db_ref.data());
    for (const KernelOptions& o : ConvOptionGrid()) {
      SetKernelOptions(o);
      std::vector<float> dx_opt(dx_size, 0.0f);
      std::vector<float> dw_opt(dw_size, 0.0f);
      std::vector<float> db_opt(db_size, 0.0f);
      Conv2dBackwardKernel(go.data(), x.data(), w.data(), s, dx_opt.data(),
                           dw_opt.data(), db_opt.data());
      ASSERT_EQ(0, std::memcmp(dx_ref.data(), dx_opt.data(),
                               dx_size * sizeof(float)))
          << "dx " << ConvName(s) << " " << OptionsName(o);
      ASSERT_EQ(0, std::memcmp(dw_ref.data(), dw_opt.data(),
                               dw_size * sizeof(float)))
          << "dw " << ConvName(s) << " " << OptionsName(o);
      ASSERT_EQ(0, std::memcmp(db_ref.data(), db_opt.data(),
                               db_size * sizeof(float)))
          << "db " << ConvName(s) << " " << OptionsName(o);
    }
  }
}

TEST_F(KernelTest, ConvReluPoolEpilogueMatchesScalarRuleBitwise) {
  // Each table's conv_relu_pool entry against the rule written out:
  // v = sum + bias, r = std::max(0.0f, v), and a window position wins
  // only when strictly greater than the running max. The sums hold
  // NaN, ±Inf, -0, ties and windows that are all <= 0 after the bias;
  // the bias has a -0. Widths fill whole 8-lane steps, part of one and
  // more than one; rows are strided wider than they are, and the buffer
  // ends where the last row does, so a read past a row's end would show
  // under ASan.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float pattern[] = {nan,  1.0f, 1.0f, 0.5f, -0.0f, -inf, inf,  inf,
                           2.0f, 2.0f, nan,  3.0f, -1.0f, -2.0f, 0.0f, -0.0f,
                           0.25f, nan, 0.25f, 0.25f, -inf, nan, -3.0f, 0.5f,
                           -0.0f, 0.0f, 0.0f, -0.0f};
  const float bias[] = {-0.0f, 0.5f, -1.5f};
  const int64_t channels = 3, rows = 4;
  std::vector<const internal::BlockedKernels*> tables{
      &internal::GenericKernels()};
  if (KernelAvx2Available()) tables.push_back(internal::Avx2KernelsOrNull());
  for (int64_t cols : {2, 6, 12, 16, 18, 34}) {
    const int64_t ld = cols + 3, plane = rows * ld + 5;
    std::vector<float> grid(
        static_cast<size_t>((channels - 1) * plane + (rows - 1) * ld + cols));
    for (size_t i = 0; i < grid.size(); ++i) {
      grid[i] = pattern[(i * 5 + i / 7) % 28];
    }
    const int64_t outs = channels * rows / 2 * cols / 2;
    std::vector<float> want(static_cast<size_t>(outs));
    std::vector<uint8_t> want_win(static_cast<size_t>(outs));
    int64_t o = 0;
    for (int64_t c = 0; c < channels; ++c) {
      for (int64_t py = 0; py < rows / 2; ++py) {
        for (int64_t px = 0; px < cols / 2; ++px, ++o) {
          const float* top = grid.data() + c * plane + 2 * py * ld + 2 * px;
          const float in[4] = {top[0], top[1], top[ld], top[ld + 1]};
          float best = std::max(0.0f, in[0] + bias[c]);
          uint8_t k_best = 0;
          for (uint8_t k = 1; k < 4; ++k) {
            const float r = std::max(0.0f, in[k] + bias[c]);
            if (r > best) {
              best = r;
              k_best = k;
            }
          }
          want[static_cast<size_t>(o)] = best;
          want_win[static_cast<size_t>(o)] = k_best;
        }
      }
    }
    for (const internal::BlockedKernels* table : tables) {
      const bool generic = table == &internal::GenericKernels();
      std::vector<float> got(static_cast<size_t>(outs), -7.0f);
      std::vector<uint8_t> got_win(static_cast<size_t>(outs), 9);
      table->conv_relu_pool(grid.data(), ld, plane, bias, channels, rows,
                            cols, got.data(), got_win.data());
      EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                               want.size() * sizeof(float)))
          << "cols=" << cols << (generic ? " generic" : " avx2");
      EXPECT_TRUE(want_win == got_win)
          << "cols=" << cols << (generic ? " generic" : " avx2");
    }
  }
}

TEST_F(KernelTest, ConvFlopCounterCountsUsefulFlopsOnly) {
  // conv2 of the CIFAR round: the padded grid computes 64 columns per
  // channel where 36 are real, but only 2*B*Cout*patch*area is counted,
  // once for the forward and once per requested backward GEMM (dw, dx).
  const ConvKernelShape s{7, 4, 6, 6, 8, 5, 1, 2};
  const int64_t useful = 2 * 7 * 8 * 100 * 36;
  const auto x = Pattern(s.batch * s.in_channels * s.height * s.width, 1.0f,
                         0.1f);
  const auto w = Pattern(s.out_channels * s.Patch(), 0.5f, 0.2f);
  const auto bias = Pattern(s.out_channels, 0.2f, 0.3f);
  const auto go = Pattern(s.batch * s.out_channels * s.OutArea(), 0.4f, 0.4f);
  std::vector<float> out(go.size(), 0.0f), dx(x.size(), 0.0f),
      dw(w.size(), 0.0f), db(bias.size(), 0.0f);
  obs::Counter* flops =
      obs::MetricsRegistry::Get().GetCounter("kernel.conv_flops");
  obs::EnableTracing(true);
  const int64_t before = flops->value();
  Conv2dForwardKernel(x.data(), w.data(), bias.data(), s, out.data());
  EXPECT_EQ(flops->value() - before, useful);
  Conv2dBackwardKernel(go.data(), x.data(), w.data(), s, dx.data(),
                       dw.data(), db.data());
  EXPECT_EQ(flops->value() - before, 3 * useful);
  Conv2dBackwardKernel(go.data(), x.data(), w.data(), s, nullptr, dw.data(),
                       nullptr);
  EXPECT_EQ(flops->value() - before, 4 * useful);
  obs::EnableTracing(false);
  obs::ClearTrace();
}

TEST_F(KernelTest, ConvBlockBackwardCountsRunAndDenseFlops) {
  // The fused block's backward at conv2 of the CIFAR round, B = 2: 144
  // pooled outputs, of which y makes 96 live (every third is clamped).
  // The sparse path runs 2*patch FLOPs per live winner for dw and again
  // for dx (kernel.conv_flops); kernel.conv_dense_flops keeps the dense
  // backward's 2*B*Cout*patch*area per product. A non-finite gradient
  // takes the dense fallback, whose run count is the dense one. Either
  // path records one conv2d_bwd span.
  const ConvKernelShape s{2, 4, 6, 6, 8, 5, 1, 2};
  const int64_t pooled = 2 * 8 * 9, live = 96;
  const int64_t dense = 2 * 2 * 8 * 100 * 36, sparse = 2 * live * 100;
  const auto x = Pattern(s.batch * s.in_channels * s.height * s.width, 1.0f,
                         0.1f);
  const auto w = Pattern(s.out_channels * s.Patch(), 0.5f, 0.2f);
  auto grad = Pattern(pooled, 0.4f, 0.4f);
  std::vector<float> y(static_cast<size_t>(pooled));
  std::vector<uint8_t> window(static_cast<size_t>(pooled));
  for (int64_t i = 0; i < pooled; ++i) {
    y[static_cast<size_t>(i)] = i % 3 == 0 ? 0.0f : 1.0f;
    window[static_cast<size_t>(i)] = static_cast<uint8_t>(i % 4);
  }
  std::vector<float> dx(x.size(), 0.0f), dw(w.size(), 0.0f),
      db(static_cast<size_t>(s.out_channels), 0.0f);
  obs::Counter* run =
      obs::MetricsRegistry::Get().GetCounter("kernel.conv_flops");
  obs::Counter* dense_run =
      obs::MetricsRegistry::Get().GetCounter("kernel.conv_dense_flops");
  auto backward = [&](float* dx_out) {
    const int64_t run0 = run->value(), dense0 = dense_run->value();
    Conv2dBiasReluPoolBackwardKernel(grad.data(), y.data(), window.data(),
                                     x.data(), w.data(), s, dx_out, dw.data(),
                                     db.data());
    return std::make_pair(run->value() - run0, dense_run->value() - dense0);
  };
  obs::ClearTrace();
  obs::EnableTracing(true);
  EXPECT_EQ(backward(dx.data()), std::make_pair(2 * sparse, 2 * dense));
  EXPECT_EQ(backward(nullptr), std::make_pair(sparse, dense));
  grad[7] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(backward(dx.data()), std::make_pair(2 * dense, 2 * dense));
  obs::EnableTracing(false);
  // One conv2d_bwd span per call on either path, and no other span.
  std::vector<std::string> spans;
  for (const auto& lane : obs::CollectTrace()) {
    for (const auto& ev : lane.events) spans.push_back(ev.name);
  }
  EXPECT_EQ(spans, std::vector<std::string>(3, "conv2d_bwd"));
  obs::ClearTrace();
}

TEST_F(KernelTest, Conv2dBackwardHandlesNullOutputs) {
  SetKernelOptions(TinyBlocks(4));
  const ConvKernelShape s{2, 2, 6, 6, 3, 3, 1, 1};
  const auto x = Pattern(s.batch * s.in_channels * s.height * s.width, 1.0f,
                         0.0f);
  const auto w = Pattern(s.out_channels * s.Patch(), 0.5f, 1.0f);
  const auto go = Pattern(s.batch * s.out_channels * s.OutArea(), 0.4f, 2.0f);
  const size_t dw_size = static_cast<size_t>(s.out_channels * s.Patch());
  std::vector<float> dw_ref(dw_size, 0.0f), dw_opt(dw_size, 0.0f);
  // dx and db skipped entirely.
  ref::Conv2dBackwardKernel(go.data(), x.data(), w.data(), s, nullptr,
                            dw_ref.data(), nullptr);
  Conv2dBackwardKernel(go.data(), x.data(), w.data(), s, nullptr,
                       dw_opt.data(), nullptr);
  EXPECT_EQ(0, std::memcmp(dw_ref.data(), dw_opt.data(),
                           dw_size * sizeof(float)));
  // All three null: must be a no-op, not a crash.
  Conv2dBackwardKernel(go.data(), x.data(), w.data(), s, nullptr, nullptr,
                       nullptr);
}

TEST_F(KernelTest, Im2ColRoundTripAgainstStridedWindow) {
  // Unit and non-unit stride must both produce the textbook patch
  // layout.
  for (int64_t stride : {int64_t{1}, int64_t{2}}) {
    const int64_t cin = 2, h = 5, w = 6, kernel = 3, pad = 1;
    const Im2ColSpec spec{kernel, stride, pad};
    const int64_t ho = (h + 2 * pad - kernel) / stride + 1;
    const int64_t wo = (w + 2 * pad - kernel) / stride + 1;
    const auto x = Pattern(cin * h * w, 1.0f, 0.8f);
    std::vector<float> cols(
        static_cast<size_t>(cin * kernel * kernel * ho * wo), -1.0f);
    Im2Col(x.data(), cin, h, w, spec, cols.data());
    for (int64_t c = 0; c < cin; ++c) {
      for (int64_t ky = 0; ky < kernel; ++ky) {
        for (int64_t kx = 0; kx < kernel; ++kx) {
          for (int64_t oy = 0; oy < ho; ++oy) {
            for (int64_t ox = 0; ox < wo; ++ox) {
              const int64_t iy = oy * stride + ky - pad;
              const int64_t ix = ox * stride + kx - pad;
              const float expected =
                  (iy < 0 || iy >= h || ix < 0 || ix >= w)
                      ? 0.0f
                      : x[static_cast<size_t>((c * h + iy) * w + ix)];
              const int64_t row = (c * kernel + ky) * kernel + kx;
              ASSERT_EQ(expected,
                        cols[static_cast<size_t>(row * ho * wo + oy * wo + ox)])
                  << "stride=" << stride << " c=" << c << " ky=" << ky
                  << " kx=" << kx << " oy=" << oy << " ox=" << ox;
            }
          }
        }
      }
    }
  }
}

TEST_F(KernelTest, GradCheckThroughBlockedConvPath) {
  // Finite-difference check of the full autograd conv path while the
  // blocked kernels (tiny blocks, 2 threads) are live underneath.
  SetKernelOptions(TinyBlocks(2));
  Rng rng(23);
  Conv2dSpec spec{.in_channels = 2, .out_channels = 3, .kernel = 3,
                  .stride = 2, .pad = 1};
  Variable x = Leaf(Tensor::Normal(Shape{2, 2, 5, 5}, 0, 1, &rng));
  Variable w = Leaf(Tensor::Normal(Shape{3, 18}, 0, 0.5f, &rng));
  Variable b = Leaf(Tensor::Normal(Shape{3}, 0, 0.5f, &rng));
  auto loss = [&] { return ag::Sum(ag::Tanh(ag::Conv2d(x, w, b, spec))); };
  EXPECT_LT(MaxGradCheckError(loss, {&x, &w, &b}, 5e-3), 0.1);
}

// ---- Scratch arena ----

TEST_F(KernelTest, ScratchArenaGrowsAndTracksPeak) {
  ScratchArena& arena = ScratchArena::ThreadLocal();
  ScratchArena::ResetPeak();
  constexpr int kSlot = ScratchArena::kSpareSlot;
  float* p = arena.Buffer(kSlot, 100);
  ASSERT_NE(p, nullptr);
  p[0] = 1.0f;
  p[99] = 2.0f;
  EXPECT_GE(ScratchArena::PeakBytes(),
            static_cast<int64_t>(100 * sizeof(float)));
  // Same slot, smaller request: pointer is stable, no growth.
  const int64_t peak_before = ScratchArena::PeakBytes();
  EXPECT_EQ(p, arena.Buffer(kSlot, 50));
  EXPECT_EQ(ScratchArena::PeakBytes(), peak_before);
  // Larger request grows the slot and raises the peak.
  float* q = arena.Buffer(kSlot, 1000);
  ASSERT_NE(q, nullptr);
  q[999] = 3.0f;
  EXPECT_GT(ScratchArena::PeakBytes(), peak_before);
}

TEST_F(KernelTest, GemmAddClaimsNoScratchGemmTransBAssignDoes) {
  // A fresh thread starts with an empty arena, so any slot a kernel
  // claims there raises the process-wide peak past the reset. The
  // products are the 3-channel MLP's fc1 at batch 8 and 24.
  std::thread([] {
    const int64_t k = 432, n = 64;
    const auto b = Pattern(k * n, 1.0f, 1.0f);
    for (int64_t m : {8, 24}) {
      ScratchArena::ResetPeak();
      const int64_t before = ScratchArena::PeakBytes();
      const auto a = Pattern(m * k, 1.0f, 0.0f);
      std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
      GemmAdd(a.data(), b.data(), m, k, n, c.data());
      std::vector<float> dw(static_cast<size_t>(k * n), 0.0f);
      GemmTransAAdd(a.data(), c.data(), m, k, n, dw.data());
      EXPECT_EQ(ScratchArena::PeakBytes(), before) << "m=" << m;
      // dx = c b^T, [m, k]: the interleaved or the small path's operand
      // goes to its slot.
      std::vector<float> dx(static_cast<size_t>(m * k));
      GemmTransBAssign(c.data(), b.data(), m, n, k, dx.data());
      EXPECT_GT(ScratchArena::PeakBytes(), before) << "m=" << m;
    }
  }).join();
}

// ---- End-to-end federated bit-identity across kernel_threads ----

/// The model a short FedAvg run trains at one kernel_threads value.
enum class TinyModel {
  kCnn,       // the CNN on 1-channel images at batch 8
  kCifarMlp,  // the MLP on 3-channel images at batch 24: fc1 is 24x432x64
};

Tensor RunTinyFedAvg(int kernel_threads, TinyModel model) {
  const bool mlp = model == TinyModel::kCifarMlp;
  Rng rng(1234);
  auto data = GenerateImageData(mlp ? CifarLikeProfile() : MnistLikeProfile(),
                                120, 60, &rng);
  auto split = SimilarityPartition(data.train, 3, 0.5, &rng);
  std::vector<ClientView> views;
  for (auto& idx : split.client_indices) views.push_back({idx, {}});
  ModelFactory factory;
  if (mlp) {
    MlpConfig mc;
    mc.in_channels = 3;
    factory = MakeMlpFactory(mc);
  } else {
    CnnConfig mc;
    mc.conv1_channels = 2;
    mc.conv2_channels = 4;
    mc.feature_dim = 8;
    factory = MakeCnnFactory(mc);
  }
  FlConfig config;
  config.local_steps = 2;
  config.batch_size = mlp ? 24 : 8;
  config.lr = 0.05;
  config.seed = 77;
  config.max_examples_per_pass = 64;
  config.kernel_threads = kernel_threads;
  FedAvg algo(config, &data.train, views, factory);
  TrainerOptions options;
  options.eval_max_examples = 60;
  FederatedTrainer trainer(&algo, &data.test, options);
  RunHistory history = trainer.Run(2);
  EXPECT_GE(history.rounds.back().peak_scratch_bytes, 0);
  return algo.global_state();
}

TEST_F(KernelTest, FederatedRunBitIdenticalAcrossKernelThreads) {
  for (TinyModel model : {TinyModel::kCnn, TinyModel::kCifarMlp}) {
    const Tensor base = RunTinyFedAvg(1, model);
    for (int threads : {2, 4}) {
      SetKernelOptions(KernelOptions{});  // the run sets its own threads
      const Tensor other = RunTinyFedAvg(threads, model);
      ASSERT_EQ(base.size(), other.size());
      ASSERT_EQ(0, std::memcmp(base.data(), other.data(),
                               sizeof(float) * static_cast<size_t>(base.size())))
          << "model=" << static_cast<int>(model) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace rfed
