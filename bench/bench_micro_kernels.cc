// Kernel-layer benchmark sweep: times the SIMD blocked/threaded kernels
// (tensor/kernels.h) against the retained naive references (rfed::ref)
// on the GEMM and convolution shapes the paper's models actually hit,
// and writes the table as BENCH_kernels.json (GFLOP/s plus
// speedup-vs-seed per shape and thread count; see docs/KERNELS.md for
// how to read it). Every case first asserts the optimized kernel is
// bit-identical to its reference before any timing. The
// cifar_round_conv{1,2}_bwd_* rows are the dense conv backward (the
// fused block's fallback) at the shapes the CIFAR round benchmark
// (roundbench/, cifar_cnn_rfedavgp) runs, at its training batch (24)
// and at a batch above its largest map_sync batch (256). The
// cifar_round_relu_* rows are ReLU and its backward mask over that
// CNN's conv1 output at the training batch (24) and the δ-map batch
// (150). Their references are the scalar loops the branch-free kernels
// replaced (std::max, the `x <= 0` mask), and their "flops" count one
// operation per element, so "gflops" reads as billions of elements per
// second. The cifar_round_conv{1,2}_relu_pool_{fwd,bwd} rows are the
// fused conv blocks the CNN runs, at the same two batches: conv, bias,
// ReLU and pool in one pass (Conv2dBiasReluPoolForwardKernel), and its
// backward (Conv2dBiasReluPoolBackward: dw, db and, except for conv1 as
// in training, dx, with terms for the live winners only). Their reference
// is the composed ref:: chain (ref conv, std::max, the int64-argmax pool
// and its backward, the mask, ref conv backward), and their "flops" are
// the dense conv's plus one per conv output, so the backward rows'
// "gflops" read as a dense-equivalent rate. The
// cifar_round_conv{1,2}_relu_pool_fwd_b8 rows run the forward at 8
// images, which a 16-lane table runs as one narrow group. The
// cifar_round_conv2_relu_pool_bwd_nonfinite_b24 row puts one NaN in the
// pooled gradient, which sends the backward down its dense fallback.
//
// The mnist_round_* rows are the eight GEMMs of one local step of the
// served MLP (roundbench/, mnist_mlp_fedavg_serve: 144-64-32-10 at batch
// 8): each layer's forward, weight gradient (GemmTransAAdd) and input
// gradient (GemmTransBAssign; the first layer's input needs none). The
// sent140_round_* and cifar_round_fc_* rows are the LSTM gate products
// at its batch of 10 and the CNN's first fully connected layer at the
// training and δ-map batches. The elementwise_* rows run each
// element-wise kernel over 11,690 floats, the MLP's parameter count
// (sum_rows as 10 rows of 1,169), against the scalar loop it replaced;
// like the activation rows they count one operation per element.
//
// Caveat for absolute speedups: the reference baseline is the *fused*
// canonical reference (std::fmaf per step), which compiles to a libm
// call in this TU — it is several times slower than the pre-fusion
// naive loops, so "speedup_vs_seed" overstates the win over historical
// baselines. Compare absolute "gflops" across BENCH_kernels.json
// revisions instead; EXPERIMENTS.md tracks those numbers.
//
// Usage:
//   ./build/bench/bench_micro_kernels                  # full sweep
//   ./build/bench/bench_micro_kernels --out path.json  # custom output
//   ./build/bench/bench_micro_kernels --smoke          # <2 s correctness
//       pass over threads {1,2,4}, tiny timings, no JSON (the
//       `bench_smoke` ctest target)
//   --min_ms N    measurement window per timing (default 300; smoke 5)
//   --only S      re-time only the rows whose name contains S and
//       rewrite only those rows of the output JSON; the other rows are
//       kept as they are, and rows no longer in the sweep are dropped

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace rfed {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4};

/// Deterministic non-degenerate fill without exact zeros, so the
/// references' zero-skip fast path never fires and the comparison is
/// fair.
std::vector<float> Fill(int64_t n, float scale, float phase) {
  std::vector<float> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    v[static_cast<size_t>(i)] =
        scale * (0.1f + std::sin(0.7f * static_cast<float>(i) + phase));
  }
  return v;
}

/// Mean per-call milliseconds of the best and the median of three
/// measurement windows.
struct WindowMs {
  double best = 0.0;
  double median = 0.0;
};

/// One warmup call, then three independent measurement windows of
/// `min_ms` each. The fastest window suppresses the frequency-scaling
/// and scheduling noise of a shared host; the median shows how far the
/// windows spread.
template <typename F>
WindowMs TimeMs(const F& fn, double min_ms) {
  fn();
  double ms[3];
  for (double& per_iter : ms) {
    int iters = 0;
    Stopwatch sw;
    double elapsed = 0.0;
    do {
      fn();
      ++iters;
      elapsed = sw.ElapsedMillis();
    } while (elapsed < min_ms);
    per_iter = elapsed / iters;
  }
  std::sort(ms, ms + 3);
  return {ms[0], ms[1]};
}

enum class Kind {
  kGemmAdd,
  kGemmTransA,
  kGemmTransB,
  kConvBwd,
  kConvReluPoolFwd,
  kConvReluPoolBwd,
  kReluFwd,
  kReluBwd,
  // The element-wise kinds come last (IsElementwise).
  kAdd,
  kSub,
  kScale,
  kAxpy,
  kFill,
  kSumRows,
  kSgd,
  kSgdMomentum,
  kRmsProp
};

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kGemmAdd: return "gemm_add";
    case Kind::kGemmTransA: return "gemm_transA_add";
    case Kind::kGemmTransB: return "gemm_transB_assign";
    case Kind::kConvBwd: return "conv2d_backward";
    case Kind::kConvReluPoolFwd: return "conv2d_bias_relu_pool_forward";
    case Kind::kConvReluPoolBwd: return "conv2d_bias_relu_pool_backward";
    case Kind::kReluFwd: return "relu_forward";
    case Kind::kReluBwd: return "relu_backward";
    case Kind::kAdd: return "add";
    case Kind::kSub: return "sub";
    case Kind::kScale: return "scale";
    case Kind::kAxpy: return "axpy";
    case Kind::kFill: return "fill";
    case Kind::kSumRows: return "sum_rows";
    case Kind::kSgd: return "sgd_step";
    case Kind::kSgdMomentum: return "sgd_momentum_step";
    case Kind::kRmsProp: return "rmsprop_step";
  }
  return "?";
}

bool IsGemm(Kind k) {
  return k == Kind::kGemmAdd || k == Kind::kGemmTransA ||
         k == Kind::kGemmTransB;
}

/// The element-wise kinds run over m rows of n floats (m = 1 but for
/// sum_rows).
bool IsElementwise(Kind k) { return k >= Kind::kAdd; }

/// The other kinds are described by a conv shape: the conv itself, or
/// the conv whose output the ReLU reads.
bool HasConvShape(Kind k) { return !IsGemm(k) && !IsElementwise(k); }

struct Case {
  const char* name;
  Kind kind;
  // GEMM dims (kind-dependent roles, see Run below); unused otherwise.
  int64_t m = 0, k = 0, n = 0;
  ConvKernelShape conv;  // every non-GEMM kind (see HasConvShape)
  bool smoke = false;    // included in the --smoke subset
  bool acceptance = false;  // the EXPERIMENTS.md >= 3x shape
  // Conv backward kinds only: whether dx is computed. A first conv's input is
  // the data batch, so training never asks for its dx.
  bool dx = true;
  // kConvReluPoolBwd only: a NaN in the pooled gradient at the first
  // window that passed the ReLU.
  bool nonfinite = false;
};

/// The sweep. Miniature shapes mirror the repo's 12x12 synthetic
/// profiles (CnnConfig defaults: conv1 8ch, conv2 16ch, k=5 same-pad,
/// LSTM 16->32); paper-scale shapes use the source paper's real CIFAR-10
/// dimensions (32x32x3, batch 32, 64-channel first conv).
std::vector<Case> Sweep() {
  std::vector<Case> cases;
  // GEMMs: {m, k, n} as C[m,n] += A[m,k] B[k,n].
  cases.push_back({"fc1_mnist", Kind::kGemmAdd, 32, 144, 64, {}, true});
  cases.push_back({"lstm_gates", Kind::kGemmAdd, 32, 48, 128, {}});
  cases.push_back({"fc_cifar_paper", Kind::kGemmAdd, 32, 1600, 384, {}});
  // The per-batch im2col product of the paper-scale CIFAR first conv:
  // weights [64, 75] x columns [75, 32*32*32]. The acceptance shape.
  cases.push_back(
      {"cifar_conv1_gemm", Kind::kGemmAdd, 64, 75, 32768, {}, false, true});
  // Backward shapes of that conv, one image: dcols[k,n] += W^T[m,k] go[m,n]
  // and dW[m,k] = go[m,n] cols[k,n]^T.
  cases.push_back({"conv_dx_gemm", Kind::kGemmTransA, 64, 75, 1024, {}, true});
  cases.push_back({"conv_dw_gemm", Kind::kGemmTransB, 64, 1024, 75, {}, true});
  // Dense conv backwards, the fused block's fallback (batch, cin, h, w,
  // cout, kernel, stride, pad).
  cases.push_back({"conv1_mnist_bwd", Kind::kConvBwd, 0, 0, 0,
                   {32, 1, 12, 12, 8, 5, 1, 2}, true});
  cases.push_back({"conv1_cifar_bwd", Kind::kConvBwd, 0, 0, 0,
                   {32, 3, 32, 32, 64, 5, 1, 2}});
  // The CIFAR round benchmark's CNN (4/8 channels on 3x12x12 images):
  // conv1 3x12x12 -> 4 and conv2 4x6x6 -> 8, k=5, pad 2.
  cases.push_back({"cifar_round_conv1_bwd_b24", Kind::kConvBwd, 0, 0, 0,
                   {24, 3, 12, 12, 4, 5, 1, 2}, true, false, false});
  cases.push_back({"cifar_round_conv2_bwd_b24", Kind::kConvBwd, 0, 0, 0,
                   {24, 4, 6, 6, 8, 5, 1, 2}, true});
  cases.push_back({"cifar_round_conv1_bwd_b256", Kind::kConvBwd, 0, 0, 0,
                   {256, 3, 12, 12, 4, 5, 1, 2}, true, false, false});
  cases.push_back({"cifar_round_conv2_bwd_b256", Kind::kConvBwd, 0, 0, 0,
                   {256, 4, 6, 6, 8, 5, 1, 2}, true});
  // Its conv blocks' forward at 8 images alone: the narrow group a
  // 16-lane table runs last (B = 24 is 16 + 8).
  cases.push_back({"cifar_round_conv1_relu_pool_fwd_b8",
                   Kind::kConvReluPoolFwd, 0, 0, 0,
                   {8, 3, 12, 12, 4, 5, 1, 2}, true});
  cases.push_back({"cifar_round_conv2_relu_pool_fwd_b8",
                   Kind::kConvReluPoolFwd, 0, 0, 0,
                   {8, 4, 6, 6, 8, 5, 1, 2}, true});
  // Its ReLU and conv blocks, at the training and the δ-map batch.
  for (int64_t b : {24, 150}) {
    const ConvKernelShape conv1{b, 3, 12, 12, 4, 5, 1, 2};
    const ConvKernelShape conv2{b, 4, 6, 6, 8, 5, 1, 2};
    const bool b24 = b == 24;
    cases.push_back({b24 ? "cifar_round_relu_fwd_b24"
                         : "cifar_round_relu_fwd_b150",
                     Kind::kReluFwd, 0, 0, 0, conv1, true});
    cases.push_back({b24 ? "cifar_round_relu_bwd_b24"
                         : "cifar_round_relu_bwd_b150",
                     Kind::kReluBwd, 0, 0, 0, conv1, true});
    cases.push_back({b24 ? "cifar_round_conv1_relu_pool_fwd_b24"
                         : "cifar_round_conv1_relu_pool_fwd_b150",
                     Kind::kConvReluPoolFwd, 0, 0, 0, conv1, true});
    cases.push_back({b24 ? "cifar_round_conv1_relu_pool_bwd_b24"
                         : "cifar_round_conv1_relu_pool_bwd_b150",
                     Kind::kConvReluPoolBwd, 0, 0, 0, conv1, true, false,
                     false});
    cases.push_back({b24 ? "cifar_round_conv2_relu_pool_fwd_b24"
                         : "cifar_round_conv2_relu_pool_fwd_b150",
                     Kind::kConvReluPoolFwd, 0, 0, 0, conv2, true});
    cases.push_back({b24 ? "cifar_round_conv2_relu_pool_bwd_b24"
                         : "cifar_round_conv2_relu_pool_bwd_b150",
                     Kind::kConvReluPoolBwd, 0, 0, 0, conv2, true});
    if (b24) {
      cases.push_back({"cifar_round_conv2_relu_pool_bwd_nonfinite_b24",
                       Kind::kConvReluPoolBwd, 0, 0, 0, conv2, true, false,
                       true, true});
    }
  }
  // The served MLP's step at batch 8. Forward: {batch, in, out}; dw
  // (TransA, A = x [batch, in], B = g [batch, out]): {batch, in, out};
  // dx (TransB, C [batch, in] = g [batch, out] W [in, out]^T):
  // {batch, in, out} as (m, k, n).
  cases.push_back({"mnist_round_fc1_fwd_b8", Kind::kGemmAdd, 8, 144, 64, {},
                   true});
  cases.push_back({"mnist_round_fc2_fwd_b8", Kind::kGemmAdd, 8, 64, 32, {},
                   true});
  cases.push_back({"mnist_round_fc3_fwd_b8", Kind::kGemmAdd, 8, 32, 10, {},
                   true});
  cases.push_back({"mnist_round_fc3_dw_b8", Kind::kGemmTransA, 8, 32, 10, {},
                   true});
  cases.push_back({"mnist_round_fc3_dx_b8", Kind::kGemmTransB, 8, 32, 10, {},
                   true});
  cases.push_back({"mnist_round_fc2_dw_b8", Kind::kGemmTransA, 8, 64, 32, {},
                   true});
  cases.push_back({"mnist_round_fc2_dx_b8", Kind::kGemmTransB, 8, 64, 32, {},
                   true});
  cases.push_back({"mnist_round_fc1_dw_b8", Kind::kGemmTransA, 8, 144, 64, {},
                   true});
  // The Sent140 LSTM's gate products (embedding 8, hidden 16, 4 gates)
  // and the CIFAR CNN's first fully connected layer (72 -> 16).
  cases.push_back({"sent140_round_gates_x_b10", Kind::kGemmAdd, 10, 8, 64, {},
                   true});
  cases.push_back({"sent140_round_gates_h_b10", Kind::kGemmAdd, 10, 16, 64, {},
                   true});
  cases.push_back({"cifar_round_fc_fwd_b24", Kind::kGemmAdd, 24, 72, 16, {},
                   true});
  cases.push_back({"cifar_round_fc_fwd_b150", Kind::kGemmAdd, 150, 72, 16, {},
                   true});
  // The 3-channel MLP's first layer (432 -> 64) at batch 24, as
  // `experiment_cli --dataset cifar --model mlp` trains it (B is 27,648
  // floats).
  cases.push_back({"cifar_mlp_fc1_fwd_b24", Kind::kGemmAdd, 24, 432, 64, {},
                   true});
  // The element-wise kernels over the MLP's 11,690 parameters.
  const struct {
    const char* name;
    Kind kind;
  } elementwise[] = {
      {"elementwise_add_11690", Kind::kAdd},
      {"elementwise_sub_11690", Kind::kSub},
      {"elementwise_scale_11690", Kind::kScale},
      {"elementwise_axpy_11690", Kind::kAxpy},
      {"elementwise_fill_11690", Kind::kFill},
      {"elementwise_sum_rows_11690", Kind::kSumRows},
      {"elementwise_sgd_11690", Kind::kSgd},
      {"elementwise_sgd_momentum_11690", Kind::kSgdMomentum},
      {"elementwise_rmsprop_11690", Kind::kRmsProp},
  };
  for (const auto& e : elementwise) {
    const bool rows = e.kind == Kind::kSumRows;
    cases.push_back({e.name, e.kind, rows ? 10 : 1, 0, rows ? 1169 : 11690, {},
                     true});
  }
  return cases;
}

/// Elements of the conv output (the activation tensor of the round).
int64_t ActivationSize(const ConvKernelShape& s) {
  return s.batch * s.out_channels * s.OutArea();
}

int64_t CaseFlops(const Case& c) {
  switch (c.kind) {
    case Kind::kGemmAdd:
    case Kind::kGemmTransA:
      return 2 * c.m * c.k * c.n;
    case Kind::kGemmTransB:
      return 2 * c.m * c.k * c.n;  // m rows x k dots of length n
    case Kind::kConvBwd:  // dw GEMM (+ dx GEMM); db is negligible
      return (c.dx ? 4 : 2) * c.conv.batch * c.conv.out_channels *
             c.conv.Patch() * c.conv.OutArea();
    case Kind::kConvReluPoolFwd:
      return 2 * c.conv.batch * c.conv.out_channels * c.conv.Patch() *
                 c.conv.OutArea() +
             ActivationSize(c.conv);
    case Kind::kConvReluPoolBwd:
      return (c.dx ? 4 : 2) * c.conv.batch * c.conv.out_channels *
                 c.conv.Patch() * c.conv.OutArea() +
             ActivationSize(c.conv);
    case Kind::kReluFwd:
    case Kind::kReluBwd:
      return ActivationSize(c.conv);
    default:  // element-wise
      return c.m * c.n;
  }
}

/// The scalar max-pool of the conv block's reference chain: absolute
/// int64 argmax, first strict maximum wins, backward accumulates.
Tensor RefMaxPoolForward(const Tensor& x, std::vector<int64_t>* argmax) {
  const int64_t planes = x.dim(0) * x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor out(Shape{x.dim(0), x.dim(1), h / 2, w / 2});
  argmax->assign(static_cast<size_t>(out.size()), 0);
  int64_t oi = 0;
  for (int64_t p = 0; p < planes; ++p) {
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

Tensor RefMaxPoolBackward(const Tensor& grad_out, const Shape& input_shape,
                          const std::vector<int64_t>& argmax) {
  Tensor dx(input_shape);
  for (int64_t i = 0; i < grad_out.size(); ++i) {
    dx.at(argmax[static_cast<size_t>(i)]) += grad_out.at(i);
  }
  return dx;
}

bool SameBits(const float* x, const float* y, size_t n) {
  return std::memcmp(x, y, n * sizeof(float)) == 0;
}

/// Whether each window byte names the input the int64 argmax chose.
bool SameWindows(const std::vector<uint8_t>& window,
                 const std::vector<int64_t>& argmax, int64_t h, int64_t w) {
  if (window.size() != argmax.size()) return false;
  for (size_t i = 0; i < window.size(); ++i) {
    const int64_t local = argmax[i] % (h * w);
    if (window[i] != (local / w % 2) * 2 + local % w % 2) return false;
  }
  return true;
}

/// One benchmark case's buffers plus ref/opt runners over them.
struct Workbench {
  std::vector<float> a, b, bias, out_ref, out_opt, dx, dw, db;
  // Element-wise kinds: the optimizer state (velocity / mean square) of
  // each path.
  std::vector<float> state_ref, state_opt;
  // Fused conv-block kinds: the clamped conv output of the reference
  // chain / the upstream grad as tensors, each path's bookkeeping, and
  // each path's result.
  Tensor pool_x, pool_g, pool_ref, pool_opt;
  std::vector<int64_t> argmax;
  std::vector<uint8_t> window;
  // Fused conv-block kinds: the op's operands and gradients as tensors.
  Tensor conv_x, conv_w, conv_dx, conv_dw, conv_db;

  explicit Workbench(const Case& c) {
    switch (c.kind) {
      case Kind::kGemmAdd:
      case Kind::kGemmTransA:
        // GemmTransAAdd reads A as [m,k] and B as [m,n] -> C[k,n]; sizes
        // below cover both layouts.
        a = Fill(c.m * c.k, 1.0f, 0.3f);
        b = Fill(c.kind == Kind::kGemmAdd ? c.k * c.n : c.m * c.n, 0.5f, 1.1f);
        out_ref.assign(static_cast<size_t>(
                           c.kind == Kind::kGemmAdd ? c.m * c.n : c.k * c.n),
                       0.0f);
        break;
      case Kind::kGemmTransB:
        a = Fill(c.m * c.n, 1.0f, 0.3f);
        b = Fill(c.k * c.n, 0.5f, 1.1f);
        out_ref.assign(static_cast<size_t>(c.m * c.k), 0.0f);
        break;
      case Kind::kConvBwd: {
        const ConvKernelShape& s = c.conv;
        a = Fill(s.batch * s.in_channels * s.height * s.width, 1.0f, 0.3f);
        b = Fill(s.out_channels * s.Patch(), 0.2f, 1.1f);
        bias = Fill(s.out_channels, 0.1f, 2.2f);
        // out_ref holds grad_out: nonzero so the reference's zero-skip
        // path never fires.
        out_ref = Fill(s.batch * s.out_channels * s.OutArea(), 0.4f, 1.7f);
        dx.assign(a.size(), 0.0f);
        dw.assign(b.size(), 0.0f);
        db.assign(bias.size(), 0.0f);
        break;
      }
      case Kind::kConvReluPoolFwd:
      case Kind::kConvReluPoolBwd: {
        const ConvKernelShape& s = c.conv;
        a = Fill(s.batch * s.in_channels * s.height * s.width, 1.0f, 0.3f);
        b = Fill(s.out_channels * s.Patch(), 0.2f, 1.1f);
        // Biases around zero, so about half the outputs clamp.
        bias = Fill(s.out_channels, 0.1f, 3.4f);
        conv_x = Tensor(Shape{s.batch, s.in_channels, s.height, s.width}, a);
        conv_w = Tensor(Shape{s.out_channels, s.Patch()}, b);
        const Shape pooled{s.batch, s.out_channels, s.OutH() / 2,
                           s.OutW() / 2};
        pool_g = Tensor(pooled, Fill(ActivationSize(s) / 4, 0.5f, 1.3f));
        pool_opt = Tensor(pooled);
        window.resize(static_cast<size_t>(pool_opt.size()));
        dx.assign(a.size(), 0.0f);
        dw.assign(b.size(), 0.0f);
        db.assign(bias.size(), 0.0f);
        RunConvBlockForward(c, /*optimized=*/false);
        RunConvBlockForward(c, /*optimized=*/true);
        if (c.nonfinite) {
          int64_t live = 0;
          while (!(pool_opt.at(live) > 0.0f)) ++live;
          pool_g.at(live) = std::nanf("");
        }
        break;
      }
      case Kind::kReluFwd:
      case Kind::kReluBwd:
        // Activations of mixed sign in a pattern a predictor cannot
        // learn, like a real pre-activation; b is the upstream grad.
        a.resize(static_cast<size_t>(ActivationSize(c.conv)));
        for (size_t i = 0; i < a.size(); ++i) {
          a[i] = std::sin(static_cast<float>(i * i % 1009));
        }
        b = Fill(ActivationSize(c.conv), 0.5f, 1.3f);
        out_ref.assign(a.size(), 0.0f);
        break;
      default:  // element-wise: a is x (or the rows), b is y / the grad
        a = Fill(c.m * c.n, 1.0f, 0.3f);
        b = Fill(c.m * c.n, 0.5f, 1.1f);
        out_ref = Fill(c.n, 0.2f, 2.3f);
        state_ref = Fill(c.n, 0.1f, 0.7f);
        for (float& v : state_ref) v = std::fabs(v);
        state_opt = state_ref;
        break;
    }
    out_opt = out_ref;
  }

  /// The element-wise kinds: the kernel, or the scalar loop it replaced.
  /// Scale multiplies by -1 so that repeated timing passes never reach
  /// denormals.
  void RunElementwise(const Case& c, bool optimized) {
    float* x = optimized ? out_opt.data() : out_ref.data();
    float* st = optimized ? state_opt.data() : state_ref.data();
    const float* y = b.data();
    const int64_t n = c.n;
    const SgdStep sgd{0.05f, 1e-4f, c.kind == Kind::kSgdMomentum ? 0.9f : 0.0f};
    const RmsPropStep rms{0.01f, 0.99f, 1e-8f};
    if (optimized) {
      switch (c.kind) {
        case Kind::kAdd: AddKernel(x, y, n); break;
        case Kind::kSub: SubKernel(x, y, n); break;
        case Kind::kScale: ScaleKernel(x, -1.0f, n); break;
        case Kind::kAxpy: AxpyKernel(x, 0.01f, y, n); break;
        case Kind::kFill: FillKernel(x, 0.0f, n); break;
        case Kind::kSumRows: SumRowsKernel(a.data(), c.m, n, x); break;
        case Kind::kSgd: SgdStepKernel(x, y, nullptr, n, sgd); break;
        case Kind::kSgdMomentum: SgdStepKernel(x, y, st, n, sgd); break;
        case Kind::kRmsProp: RmsPropStepKernel(x, y, st, n, rms); break;
        default: break;
      }
      return;
    }
    switch (c.kind) {
      case Kind::kAdd:
        for (int64_t i = 0; i < n; ++i) x[i] += y[i];
        break;
      case Kind::kSub:
        for (int64_t i = 0; i < n; ++i) x[i] -= y[i];
        break;
      case Kind::kScale:
        for (int64_t i = 0; i < n; ++i) x[i] *= -1.0f;
        break;
      case Kind::kAxpy:
        for (int64_t i = 0; i < n; ++i) x[i] += 0.01f * y[i];
        break;
      case Kind::kFill:
        for (int64_t i = 0; i < n; ++i) x[i] = 0.0f;
        break;
      case Kind::kSumRows:
        for (int64_t r = 0; r < c.m; ++r) {
          for (int64_t i = 0; i < n; ++i) x[i] += a[r * n + i];
        }
        break;
      case Kind::kSgd:
        for (int64_t i = 0; i < n; ++i) {
          x[i] -= sgd.lr * (y[i] + sgd.weight_decay * x[i]);
        }
        break;
      case Kind::kSgdMomentum:
        for (int64_t i = 0; i < n; ++i) {
          st[i] = sgd.momentum * st[i] + y[i] + sgd.weight_decay * x[i];
          x[i] -= sgd.lr * st[i];
        }
        break;
      case Kind::kRmsProp:
        for (int64_t i = 0; i < n; ++i) {
          st[i] = rms.alpha * st[i] + (1.0f - rms.alpha) * y[i] * y[i];
          x[i] -= rms.lr * y[i] / (std::sqrt(st[i]) + rms.eps);
        }
        break;
      default:
        break;
    }
  }

  /// The fused conv block forward, or the ref:: chain it replaced: conv,
  /// clamp, int64-argmax pool (pool_x keeps the clamped conv output for
  /// the backward's mask).
  void RunConvBlockForward(const Case& c, bool optimized) {
    const ConvKernelShape& s = c.conv;
    if (optimized) {
      Conv2dBiasReluPoolForwardKernel(a.data(), b.data(), bias.data(), s,
                                      pool_opt.data(), window.data());
      return;
    }
    pool_x = Tensor(Shape{s.batch, s.out_channels, s.OutH(), s.OutW()});
    ref::Conv2dForwardKernel(a.data(), b.data(), bias.data(), s,
                             pool_x.data());
    for (int64_t i = 0; i < pool_x.size(); ++i) {
      pool_x.at(i) = std::max(0.0f, pool_x.at(i));
    }
    pool_ref = RefMaxPoolForward(pool_x, &argmax);
  }

  /// Its backward from the forward's bookkeeping: the routing pass and
  /// the conv gradients, or the pool backward, the mask and the ref
  /// conv backward.
  void RunConvBlockBackward(const Case& c, bool optimized) {
    const ConvKernelShape& s = c.conv;
    if (optimized) {
      const Conv2dSpec spec{s.in_channels, s.out_channels, s.kernel, s.stride,
                            s.pad};
      Conv2dBiasReluPoolBackward(pool_g, pool_opt, window, conv_x, conv_w,
                                 spec, c.dx ? &conv_dx : nullptr, &conv_dw,
                                 &conv_db);
      return;
    }
    Tensor routed = RefMaxPoolBackward(pool_g, pool_x.shape(), argmax);
    for (int64_t i = 0; i < routed.size(); ++i) {
      if (pool_x.at(i) <= 0.0f) routed.at(i) = 0.0f;
    }
    std::fill(dx.begin(), dx.end(), 0.0f);
    std::fill(dw.begin(), dw.end(), 0.0f);
    std::fill(db.begin(), db.end(), 0.0f);
    ref::Conv2dBackwardKernel(routed.data(), a.data(), b.data(), s,
                              c.dx ? dx.data() : nullptr, dw.data(),
                              db.data());
  }

  /// Runs the case once; `optimized` picks the blocked vs ref kernel.
  /// Accumulating kinds re-run on the same output (fine for timing: the
  /// float work is identical each pass); bitwise comparison below resets
  /// the buffers itself.
  void Run(const Case& c, bool optimized) {
    if (IsElementwise(c.kind)) {
      RunElementwise(c, optimized);
      return;
    }
    float* out = optimized ? out_opt.data() : out_ref.data();
    switch (c.kind) {
      case Kind::kGemmAdd:
        (optimized ? GemmAdd : ref::GemmAdd)(a.data(), b.data(), c.m, c.k, c.n,
                                             out);
        break;
      case Kind::kGemmTransA:
        (optimized ? GemmTransAAdd : ref::GemmTransAAdd)(a.data(), b.data(),
                                                         c.m, c.k, c.n, out);
        break;
      case Kind::kGemmTransB:
        (optimized ? GemmTransBAssign : ref::GemmTransBAssign)(
            a.data(), b.data(), c.m, c.n, c.k, out);
        break;
      case Kind::kConvBwd:
        std::memset(dx.data(), 0, dx.size() * sizeof(float));
        std::memset(dw.data(), 0, dw.size() * sizeof(float));
        std::memset(db.data(), 0, db.size() * sizeof(float));
        (optimized ? Conv2dBackwardKernel : ref::Conv2dBackwardKernel)(
            out_ref.data(), a.data(), b.data(), c.conv,
            c.dx ? dx.data() : nullptr, dw.data(), db.data());
        break;
      case Kind::kConvReluPoolFwd:
        RunConvBlockForward(c, optimized);
        break;
      case Kind::kConvReluPoolBwd:
        RunConvBlockBackward(c, optimized);
        break;
      case Kind::kReluFwd:
        if (optimized) {
          ReluKernel(a.data(), static_cast<int64_t>(a.size()), out);
        } else {
          for (size_t i = 0; i < a.size(); ++i) out[i] = std::max(0.0f, a[i]);
        }
        break;
      case Kind::kReluBwd:
        if (optimized) {
          ReluMaskKernel(b.data(), a.data(), static_cast<int64_t>(a.size()),
                         out);
        } else {
          for (size_t i = 0; i < a.size(); ++i) {
            out[i] = b[i];
            if (a[i] <= 0.0f) out[i] = 0.0f;
          }
        }
        break;
      default:
        break;
    }
  }

  /// Bit-identity check: runs ref then opt from zeroed outputs and
  /// memcmps. ConvBwd compares dx/dw/db via two sequential Run passes
  /// (Run zeroes them itself), snapshotting between.
  bool Verify(const Case& c) {
    if (c.kind == Kind::kConvReluPoolFwd || c.kind == Kind::kConvReluPoolBwd) {
      RunConvBlockForward(c, /*optimized=*/false);
      RunConvBlockForward(c, /*optimized=*/true);
      if (c.kind == Kind::kConvReluPoolFwd) {
        return pool_ref.shape() == pool_opt.shape() &&
               SameBits(pool_ref.data(), pool_opt.data(),
                        static_cast<size_t>(pool_ref.size())) &&
               SameWindows(window, argmax, c.conv.OutH(), c.conv.OutW());
      }
      RunConvBlockBackward(c, /*optimized=*/false);
      RunConvBlockBackward(c, /*optimized=*/true);
      return (!c.dx || SameBits(dx.data(), conv_dx.data(), dx.size())) &&
             SameBits(dw.data(), conv_dw.data(), dw.size()) &&
             SameBits(db.data(), conv_db.data(), db.size());
    }
    if (c.kind == Kind::kConvBwd) {
      Run(c, /*optimized=*/false);
      const std::vector<float> rdx = dx, rdw = dw, rdb = db;
      Run(c, /*optimized=*/true);
      auto same = [](const std::vector<float>& x, const std::vector<float>& y) {
        return SameBits(x.data(), y.data(), x.size());
      };
      return same(rdx, dx) && same(rdw, dw) && same(rdb, db);
    }
    if (IsElementwise(c.kind)) {
      // From equal starting values, both paths must agree on the output
      // and on the optimizer state.
      out_opt = out_ref;
      state_opt = state_ref;
      Run(c, /*optimized=*/false);
      Run(c, /*optimized=*/true);
      return SameBits(out_ref.data(), out_opt.data(), out_ref.size()) &&
             SameBits(state_ref.data(), state_opt.data(), state_ref.size());
    }
    std::fill(out_ref.begin(), out_ref.end(), 0.0f);
    std::fill(out_opt.begin(), out_opt.end(), 0.0f);
    Run(c, /*optimized=*/false);
    Run(c, /*optimized=*/true);
    return SameBits(out_ref.data(), out_opt.data(), out_ref.size());
  }
};

struct Timing {
  int threads;
  WindowMs ms;
  double gflops;
  double speedup;
};

struct Result {
  Case c;
  const char* isa = "";  // the kernel table active when the row was timed
  WindowMs ref_ms;
  double ref_gflops = 0.0;
  std::vector<Timing> opt;
};

void SetThreads(int threads) {
  KernelOptions o;
  o.threads = threads;
  SetKernelOptions(o);
}

/// One row of the "cases" array, as WriteJson lays it out (no trailing
/// comma or newline).
std::string FormatRow(const Result& r) {
  std::string row;
  char line[512];
  auto add = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof(line), fmt, args...);
    row += line;
  };
  add("    {\n      \"name\": \"%s\",\n", r.c.name);
  add("      \"kind\": \"%s\",\n", KindName(r.c.kind));
  add("      \"isa\": \"%s\",\n", r.isa);
  if (HasConvShape(r.c.kind)) {
    const ConvKernelShape& s = r.c.conv;
    add("      \"shape\": {\"batch\": %lld, \"cin\": %lld, \"h\": %lld, "
        "\"w\": %lld, \"cout\": %lld, \"kernel\": %lld, \"stride\": %lld, "
        "\"pad\": %lld},\n",
        static_cast<long long>(s.batch), static_cast<long long>(s.in_channels),
        static_cast<long long>(s.height), static_cast<long long>(s.width),
        static_cast<long long>(s.out_channels),
        static_cast<long long>(s.kernel), static_cast<long long>(s.stride),
        static_cast<long long>(s.pad));
    if (r.c.kind == Kind::kConvBwd || r.c.kind == Kind::kConvReluPoolBwd) {
      add("      \"dx\": %s,\n", r.c.dx ? "true" : "false");
    }
  } else if (IsElementwise(r.c.kind)) {
    add("      \"shape\": {\"rows\": %lld, \"cols\": %lld},\n",
        static_cast<long long>(r.c.m), static_cast<long long>(r.c.n));
  } else {
    add("      \"shape\": {\"m\": %lld, \"k\": %lld, \"n\": %lld},\n",
        static_cast<long long>(r.c.m), static_cast<long long>(r.c.k),
        static_cast<long long>(r.c.n));
  }
  add("      \"flops\": %lld,\n", static_cast<long long>(CaseFlops(r.c)));
  add("      \"ref_ms\": %.4f,\n      \"ref_median_ms\": %.4f,\n"
      "      \"ref_gflops\": %.3f,\n",
      r.ref_ms.best, r.ref_ms.median, r.ref_gflops);
  add("      \"acceptance_shape\": %s,\n", r.c.acceptance ? "true" : "false");
  row += "      \"opt\": [\n";
  for (size_t t = 0; t < r.opt.size(); ++t) {
    const Timing& ot = r.opt[t];
    add("        {\"threads\": %d, \"ms\": %.4f, \"median_ms\": %.4f, "
        "\"gflops\": %.3f, \"speedup_vs_seed\": %.3f}%s\n",
        ot.threads, ot.ms.best, ot.ms.median, ot.gflops, ot.speedup,
        t + 1 < r.opt.size() ? "," : "");
  }
  row += "      ]\n    }";
  return row;
}

/// The rows of a JSON file this program wrote, by case name (empty when
/// the file does not exist): each row's text from its opening "    {"
/// line to its closing "    }", without the separating comma.
std::map<std::string, std::string> ReadRows(const std::string& path) {
  std::map<std::string, std::string> rows;
  std::ifstream in(path);
  std::string line, row, name;
  bool inside = false;
  while (std::getline(in, line)) {
    if (!inside && line == "    {") {
      inside = true;
      row.clear();
      name.clear();
    }
    if (!inside) continue;
    const std::string key = "      \"name\": \"";
    if (line.rfind(key, 0) == 0) {
      name = line.substr(key.size(), line.find('"', key.size()) - key.size());
    }
    if (line.rfind("    }", 0) == 0) {
      row += "    }";
      rows[name] = row;
      inside = false;
      continue;
    }
    row += line + "\n";
  }
  return rows;
}

void WriteJson(const std::string& path, const std::vector<std::string>& rows,
               double min_ms) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"kernels\",\n");
  std::fprintf(f, "  \"baseline\": \"rfed::ref (canonical fused references)\",\n");
  std::fprintf(f,
               "  \"baseline_note\": \"the fused ref (std::fmaf per step) is "
               "several times slower than the pre-fusion naive loops, so "
               "speedup_vs_seed overstates historical wins; compare absolute "
               "gflops across revisions\",\n");
  std::fprintf(f, "  \"host_hw_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"min_ms_per_timing\": %.0f,\n", min_ms);
  std::fprintf(f, "  \"cases\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "%s%s\n", rows[i].c_str(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const double min_ms = flags.GetDouble("min_ms", smoke ? 5.0 : 300.0);
  const std::string out = flags.GetString("out", smoke ? "" : "BENCH_kernels.json");
  const std::string only = flags.GetString("only", "");

  // Rows kept from the existing file when only some are re-timed.
  const std::map<std::string, std::string> kept =
      only.empty() || out.empty() ? std::map<std::string, std::string>{}
                                  : ReadRows(out);
  std::vector<std::string> rows;
  int failures = 0;
  for (const Case& c : Sweep()) {
    if (smoke && !c.smoke) continue;
    if (std::string(c.name).find(only) == std::string::npos) {
      auto it = kept.find(c.name);
      if (it != kept.end()) rows.push_back(it->second);
      continue;
    }
    Workbench wb(c);
    // Correctness gate: the optimized kernel must be bit-identical to
    // the seed reference at every thread count before it is timed.
    for (int threads : kThreadCounts) {
      SetThreads(threads);
      if (!wb.Verify(c)) {
        std::fprintf(stderr, "FAIL: %s not bit-identical at threads=%d\n",
                     c.name, threads);
        ++failures;
      }
    }
    Result r;
    r.c = c;
    SetThreads(1);
    r.isa = KernelIsaName(ActiveKernelIsa());
    r.ref_ms = TimeMs([&] { wb.Run(c, false); }, min_ms);
    const double flops = static_cast<double>(CaseFlops(c));
    r.ref_gflops = flops / (r.ref_ms.best * 1e6);
    for (int threads : kThreadCounts) {
      SetThreads(threads);
      Timing t;
      t.threads = threads;
      t.ms = TimeMs([&] { wb.Run(c, true); }, min_ms);
      t.gflops = flops / (t.ms.best * 1e6);
      t.speedup = r.ref_ms.best / t.ms.best;
      r.opt.push_back(t);
    }
    std::printf("%-26s %-18s ref %8.3f ms (%6.2f GF/s)", c.name,
                KindName(c.kind), r.ref_ms.best, r.ref_gflops);
    for (const Timing& t : r.opt) {
      std::printf("  t%d %8.3f ms (%5.2fx)", t.threads, t.ms.best, t.speedup);
    }
    std::printf("%s\n", c.acceptance ? "  [acceptance]" : "");
    rows.push_back(FormatRow(r));
  }
  SetKernelOptions(KernelOptions{});

  if (!out.empty()) WriteJson(out, rows, min_ms);
  if (failures > 0) return 1;
  if (smoke) {
    std::printf("smoke OK: all cases bit-identical across threads {1,2,4}\n");
  }
  return 0;
}

}  // namespace
}  // namespace rfed

int main(int argc, char** argv) { return rfed::Main(argc, argv); }
