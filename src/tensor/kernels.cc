#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/kernels_blocked.h"
#include "tensor/kernels_dispatch.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace rfed {
namespace {

KernelOptions g_options;

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;  // guarded by g_pool_mu
int g_pool_threads = 0;              // guarded by g_pool_mu

constexpr std::align_val_t kScratchAlign{64};
std::atomic<int64_t> g_scratch_bytes{0};
std::atomic<int64_t> g_scratch_peak{0};

void NotePeak(int64_t current) {
  int64_t peak = g_scratch_peak.load(std::memory_order_relaxed);
  while (current > peak &&
         !g_scratch_peak.compare_exchange_weak(peak, current,
                                               std::memory_order_relaxed)) {
  }
}

}  // namespace

const KernelOptions& GetKernelOptions() { return g_options; }

void SetKernelOptions(const KernelOptions& options) {
  KernelOptions fixed = options;
  fixed.block_m = std::max(1, fixed.block_m);
  fixed.block_n = std::max(1, fixed.block_n);
  g_options = fixed;
}

void SetKernelThreads(int threads) { g_options.threads = threads; }

bool KernelAvx2Available() {
  static const bool available = [] {
    if (internal::Avx2KernelsOrNull() == nullptr) return false;
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") != 0;
#else
    return false;
#endif
  }();
  return available;
}

bool KernelAvx512Available() {
  static const bool available = [] {
    if (internal::Avx512KernelsOrNull() == nullptr || !KernelAvx2Available()) {
      return false;
    }
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vl") &&
           __builtin_cpu_supports("avx512dq");
#else
    return false;
#endif
  }();
  return available;
}

KernelIsa ActiveKernelIsa() {
  switch (g_options.isa) {
    case KernelIsa::kGeneric:
      return KernelIsa::kGeneric;
    case KernelIsa::kAvx2:
      RFED_CHECK(KernelAvx2Available())
          << "KernelOptions.isa forces AVX2 but this build/CPU lacks it";
      return KernelIsa::kAvx2;
    case KernelIsa::kAvx512:
      RFED_CHECK(KernelAvx512Available())
          << "KernelOptions.isa forces AVX-512 but this build/CPU lacks it";
      return KernelIsa::kAvx512;
    case KernelIsa::kAuto:
      break;
  }
  if (KernelAvx512Available()) return KernelIsa::kAvx512;
  return KernelAvx2Available() ? KernelIsa::kAvx2 : KernelIsa::kGeneric;
}

const char* KernelIsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kAuto:
      return "auto";
    case KernelIsa::kGeneric:
      return "generic";
    case KernelIsa::kAvx2:
      return "avx2";
    case KernelIsa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

namespace {

/// The blocked-kernel table the next call dispatches to.
const internal::BlockedKernels& ActiveTable() {
  switch (ActiveKernelIsa()) {
    case KernelIsa::kAvx512:
      return *internal::Avx512KernelsOrNull();
    case KernelIsa::kAvx2:
      return *internal::Avx2KernelsOrNull();
    default:
      return internal::GenericKernels();
  }
}

}  // namespace

ScratchArena& ScratchArena::ThreadLocal() {
  thread_local ScratchArena arena;
  return arena;
}

void* ScratchArena::Bytes(int slot, size_t bytes) {
  RFED_CHECK_GE(slot, 0);
  RFED_CHECK_LT(slot, kMaxSlots);
  Slot& s = slots_[slot];
  if (s.capacity < bytes) {
    const int64_t delta = static_cast<int64_t>(bytes - s.capacity);
    ::operator delete(s.data, kScratchAlign);
    s.data = ::operator new(bytes, kScratchAlign);
    s.capacity = bytes;
    NotePeak(g_scratch_bytes.fetch_add(delta, std::memory_order_relaxed) +
             delta);
  }
  return s.data;
}

ScratchArena::~ScratchArena() {
  int64_t total = 0;
  for (Slot& s : slots_) {
    total += static_cast<int64_t>(s.capacity);
    ::operator delete(s.data, kScratchAlign);
  }
  g_scratch_bytes.fetch_sub(total, std::memory_order_relaxed);
}

int64_t ScratchArena::PeakBytes() {
  return g_scratch_peak.load(std::memory_order_relaxed);
}

void ScratchArena::ResetPeak() {
  g_scratch_peak.store(g_scratch_bytes.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
}

void internal::ParallelForImpl(int64_t chunks, const void* ctx,
                               void (*trampoline)(const void*, int64_t)) {
  const int threads = g_options.threads;
  if (threads > 1 && chunks > 1) {
    // The pool is a process singleton; if another thread is mid-fan-out
    // (kernels called from the FL trainer's own worker pool), fall back
    // to the serial path — values never depend on the choice.
    std::unique_lock<std::mutex> lock(g_pool_mu, std::try_to_lock);
    if (lock.owns_lock()) {
      if (!g_pool || g_pool_threads != threads) {
        g_pool = std::make_unique<ThreadPool>(threads);
        g_pool_threads = threads;
      }
      g_pool->ParallelFor(static_cast<int>(chunks),
                          [&](int i) { trampoline(ctx, i); });
      return;
    }
  }
  for (int64_t i = 0; i < chunks; ++i) trampoline(ctx, i);
}

// ---- Canonical-order references ----

namespace ref {

void GemmAdd(const float* a, const float* b, int64_t m, int64_t k, int64_t n,
             float* c) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (int64_t j = 0; j < n; ++j) {
        crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
  }
}

void GemmTransAAdd(const float* a, const float* b, int64_t m, int64_t k,
                   int64_t n, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      float* crow = c + p * n;
      for (int64_t j = 0; j < n; ++j) {
        crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
  }
}

void GemmTransBAssign(const float* a, const float* b, int64_t m, int64_t n,
                      int64_t k, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * n;
    float* crow = c + i * k;
    for (int64_t p = 0; p < k; ++p) {
      const float* brow = b + p * n;
      double acc = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        acc += static_cast<double>(arow[j]) * brow[j];
      }
      crow[p] = static_cast<float>(acc);
    }
  }
}

}  // namespace ref

// ---- im2col / col2im ----

void Im2Col(const float* x, int64_t cin, int64_t h, int64_t w,
            const Im2ColSpec& spec, float* cols) {
  const int64_t k = spec.kernel;
  const int64_t ho = (h + 2 * spec.pad - k) / spec.stride + 1;
  const int64_t wo = (w + 2 * spec.pad - k) / spec.stride + 1;
  const int64_t out_area = ho * wo;
  int64_t row = 0;
  for (int64_t c = 0; c < cin; ++c) {
    for (int64_t ky = 0; ky < k; ++ky) {
      for (int64_t kx = 0; kx < k; ++kx, ++row) {
        float* dst = cols + row * out_area;
        for (int64_t oy = 0; oy < ho; ++oy) {
          const int64_t iy = oy * spec.stride + ky - spec.pad;
          for (int64_t ox = 0; ox < wo; ++ox) {
            const int64_t ix = ox * spec.stride + kx - spec.pad;
            const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < w;
            dst[oy * wo + ox] = inside ? x[(c * h + iy) * w + ix] : 0.0f;
          }
        }
      }
    }
  }
}

void Col2Im(const float* cols, int64_t cin, int64_t h, int64_t w,
            const Im2ColSpec& spec, float* dx) {
  const int64_t k = spec.kernel;
  const int64_t ho = (h + 2 * spec.pad - k) / spec.stride + 1;
  const int64_t wo = (w + 2 * spec.pad - k) / spec.stride + 1;
  const int64_t out_area = ho * wo;
  int64_t row = 0;
  for (int64_t c = 0; c < cin; ++c) {
    for (int64_t ky = 0; ky < k; ++ky) {
      for (int64_t kx = 0; kx < k; ++kx, ++row) {
        const float* src = cols + row * out_area;
        for (int64_t oy = 0; oy < ho; ++oy) {
          const int64_t iy = oy * spec.stride + ky - spec.pad;
          if (iy < 0 || iy >= h) continue;
          for (int64_t ox = 0; ox < wo; ++ox) {
            const int64_t ix = ox * spec.stride + kx - spec.pad;
            if (ix < 0 || ix >= w) continue;
            dx[(c * h + iy) * w + ix] += src[oy * wo + ox];
          }
        }
      }
    }
  }
}

// ---- Blocked GEMM drivers (dispatch) ----

namespace {

// Uninstrumented kernel bodies; the public entry points below wrap
// them with a trace span + FLOP counter.

void GemmAddImpl(const float* a, const float* b, int64_t m, int64_t k,
                 int64_t n, float* c) {
  const KernelOptions& opt = g_options;
  const TileConfig tile{opt.block_m, opt.block_n};
  ActiveTable().gemm_in_place(a, /*rs=*/k, /*ss=*/1, b, m, k, n, c, tile,
                              2 * m * k * n >= opt.parallel_min_flops);
}

// C[k,n] += A^T B is the in-place product whose row p of "A" is column
// p of A: element (p, i) lies at a[i*k + p], and the steps run over the
// rows i of A and B in ascending order, the reference's order.
void GemmTransAAddImpl(const float* a, const float* b, int64_t m, int64_t k,
                       int64_t n, float* c) {
  const KernelOptions& opt = g_options;
  const TileConfig tile{opt.block_m, opt.block_n};
  ActiveTable().gemm_in_place(a, /*rs=*/1, /*ss=*/k, b, k, m, n, c, tile,
                              2 * m * k * n >= opt.parallel_min_flops);
}

void GemmTransBAssignImpl(const float* a, const float* b, int64_t m, int64_t n,
                          int64_t k, float* c) {
  const KernelOptions& opt = g_options;
  const internal::BlockedKernels& table = ActiveTable();
  const TileConfig tile{opt.block_m, opt.block_n};
  n = std::max<int64_t>(n, 0);
  (internal::GemmTransBSmall(m) ? table.gemm_transb_small : table.gemm_transb)(
      a, b, m, n, k, c, tile, 2 * m * n * k >= opt.parallel_min_flops);
}

// FLOP counters are looked up once; the adds (and the spans) only run
// when tracing is enabled so the disabled path stays a single branch.
obs::Counter* GemmFlopCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Get().GetCounter("kernel.gemm_flops");
  return c;
}

/// A conv call's FLOPs: 2 per multiply-add it runs (kernel.conv_flops)
/// and 2 per multiply-add of the dense conv it stands for
/// (kernel.conv_dense_flops); they differ only where the fused block's
/// backward skips the zero terms.
void CountConvFlops(int64_t run, int64_t dense) {
  static obs::Counter* run_flops =
      obs::MetricsRegistry::Get().GetCounter("kernel.conv_flops");
  static obs::Counter* dense_flops =
      obs::MetricsRegistry::Get().GetCounter("kernel.conv_dense_flops");
  run_flops->Add(run);
  dense_flops->Add(dense);
}

}  // namespace

void GemmAdd(const float* a, const float* b, int64_t m, int64_t k, int64_t n,
             float* c) {
  if (m <= 0 || k <= 0 || n <= 0) return;
  if (obs::TracingEnabled()) {
    obs::TraceSpan span("gemm_add");
    GemmFlopCounter()->Add(2 * m * k * n);
    GemmAddImpl(a, b, m, k, n, c);
    return;
  }
  GemmAddImpl(a, b, m, k, n, c);
}

void GemmTransAAdd(const float* a, const float* b, int64_t m, int64_t k,
                   int64_t n, float* c) {
  if (m <= 0 || k <= 0 || n <= 0) return;
  if (obs::TracingEnabled()) {
    obs::TraceSpan span("gemm_ta");
    GemmFlopCounter()->Add(2 * m * k * n);
    GemmTransAAddImpl(a, b, m, k, n, c);
    return;
  }
  GemmTransAAddImpl(a, b, m, k, n, c);
}

void GemmTransBAssign(const float* a, const float* b, int64_t m, int64_t n,
                      int64_t k, float* c) {
  if (m <= 0 || k <= 0) return;
  if (obs::TracingEnabled()) {
    obs::TraceSpan span("gemm_tb");
    GemmFlopCounter()->Add(2 * m * (n > 0 ? n : 0) * k);
    GemmTransBAssignImpl(a, b, m, n, k, c);
    return;
  }
  GemmTransBAssignImpl(a, b, m, n, k, c);
}

// ---- Convolution drivers ----

namespace {

/// The padded-grid paths need unit stride (so an im2col entry lies at a
/// fixed offset from its output position in the padded image) and
/// pad < kernel (so the gradient grid's padding is not negative). Any
/// other shape runs the reference loops; no model in the repository
/// uses one.
bool ConvOnPaddedGrid(const ConvKernelShape& s) {
  return s.stride == 1 && s.pad < s.kernel;
}

/// 2 * the multiply-adds of one dense conv-sized product.
int64_t DenseConvFlops(const ConvKernelShape& s) {
  return 2 * s.batch * s.out_channels * s.Patch() * s.OutArea();
}

/// The dense backward of the conv alone, uninstrumented.
void ConvBackward(const float* grad_out, const float* x, const float* w,
                  const ConvKernelShape& s, float* dx, float* dw, float* db) {
  if (!ConvOnPaddedGrid(s)) {
    ref::Conv2dBackwardKernel(grad_out, x, w, s, dx, dw, db);
    return;
  }
  ActiveTable().conv_backward(grad_out, x, w, s, dx, dw, db);
}

/// The conv-sized products a backward runs: one each for dw and dx
/// (db's adds are not counted).
int64_t BackwardProducts(const float* dx, const float* dw) {
  return (dw != nullptr ? 1 : 0) + (dx != nullptr ? 1 : 0);
}

}  // namespace

void Conv2dBiasReluPoolForwardKernel(const float* x, const float* w,
                                     const float* bias,
                                     const ConvKernelShape& s, float* out,
                                     uint8_t* window) {
  RFED_CHECK(s.OutH() % 2 == 0 && s.OutW() % 2 == 0)
      << "the 2x2 pool needs even conv outputs";
  obs::TraceSpan trace_span("conv2d_fwd");
  if (obs::TracingEnabled()) {
    CountConvFlops(DenseConvFlops(s), DenseConvFlops(s));
  }
  if (ConvOnPaddedGrid(s)) {
    ActiveTable().conv_forward(x, w, bias, s, out, window);
    return;
  }
  // The reference sums without the bias (a +0 bias changes no sum: a
  // chain that starts at +0 never reaches -0), then the scalar epilogue
  // runs on each image's dense planes with the lane epilogue's rule.
  const int64_t area = s.OutArea();
  const int64_t planes = s.out_channels * area;
  std::vector<float> sums(static_cast<size_t>(s.batch * planes), 0.0f);
  const std::vector<float> no_bias(static_cast<size_t>(s.out_channels), 0.0f);
  ref::Conv2dForwardKernel(x, w, no_bias.data(), s, sums.data());
  for (int64_t i = 0; i < s.batch; ++i) {
    internal::ReluPoolRange(sums.data() + i * planes, bias, s.out_channels,
                            s.OutH(), s.OutW(), out + i * planes / 4,
                            window + i * planes / 4);
  }
}

void Conv2dBackwardKernel(const float* grad_out, const float* x,
                          const float* w, const ConvKernelShape& s, float* dx,
                          float* dw, float* db) {
  obs::TraceSpan trace_span("conv2d_bwd");
  if (obs::TracingEnabled()) {
    const int64_t flops = DenseConvFlops(s) * BackwardProducts(dx, dw);
    CountConvFlops(flops, flops);
  }
  ConvBackward(grad_out, x, w, s, dx, dw, db);
}

void Conv2dBiasReluPoolBackwardKernel(const float* grad, const float* y,
                                      const uint8_t* window, const float* x,
                                      const float* w, const ConvKernelShape& s,
                                      float* dx, float* dw, float* db) {
  RFED_CHECK(s.OutH() % 2 == 0 && s.OutW() % 2 == 0)
      << "the 2x2 pool needs even conv outputs";
  obs::TraceSpan trace_span("conv2d_bwd");
  const int64_t pooled = s.batch * s.out_channels * s.OutArea() / 4;
  // Only the operands a wanted gradient reads are checked: x feeds only
  // dw, w only dx.
  const bool sparse =
      ConvOnPaddedGrid(s) && AllFiniteKernel(grad, pooled) &&
      (dw == nullptr ||
       AllFiniteKernel(x, s.batch * s.in_channels * s.height * s.width)) &&
      (dx == nullptr || AllFiniteKernel(w, s.out_channels * s.Patch()));
  if (obs::TracingEnabled()) {
    const int64_t products = BackwardProducts(dx, dw);
    int64_t live = 0;
    for (int64_t i = 0; i < pooled; ++i) live += y[i] > 0.0f ? 1 : 0;
    CountConvFlops(sparse ? 2 * live * s.Patch() * products
                          : DenseConvFlops(s) * products,
                   DenseConvFlops(s) * products);
  }
  if (sparse) {
    const internal::BlockedKernels& table = ActiveTable();
    table.conv_block_backward(grad, y, window, x, w, s, dx, dw, db,
                              table.live_winners);
    return;
  }
  // The dense fallback, where Inf * 0 = NaN must survive: route each
  // pooled gradient to its window's winner, 0 + g (-0 becomes +0) where
  // the winner passed the ReLU and +0 elsewhere, then run the conv's
  // backward on the full-size grid.
  const int64_t wd = s.OutW(), wo = wd / 2;
  std::vector<float> routed(static_cast<size_t>(4 * pooled), 0.0f);
  // Where window index k sits relative to its window's top-left input.
  const int64_t offset[4] = {0, 1, wd, wd + 1};
  for (int64_t r = 0; r < pooled / wo; ++r) {
    float* top = routed.data() + 2 * r * wd;
    for (int64_t ox = 0; ox < wo; ++ox) {
      const int64_t i = r * wo + ox;
      top[2 * ox + offset[window[i] & 3]] = y[i] > 0.0f ? 0.0f + grad[i] : 0.0f;
    }
  }
  ConvBackward(routed.data(), x, w, s, dx, dw, db);
}

// ---- Activations ----

void ReluKernel(const float* x, int64_t n, float* y) {
  obs::TraceSpan trace_span("relu_fwd");
  ActiveTable().relu(x, n, y);
}

void ReluMaskKernel(const float* g, const float* x, int64_t n, float* out) {
  obs::TraceSpan trace_span("relu_bwd");
  ActiveTable().relu_mask(g, x, n, out);
}

// ---- Element-wise ----

void AddKernel(float* x, const float* y, int64_t n) {
  ActiveTable().add(x, y, n);
}

void SubKernel(float* x, const float* y, int64_t n) {
  ActiveTable().sub(x, y, n);
}

void ScaleKernel(float* x, float s, int64_t n) {
  ActiveTable().scale(x, s, n);
}

void AxpyKernel(float* x, float s, const float* y, int64_t n) {
  ActiveTable().axpy(x, s, y, n);
}

bool AllFiniteKernel(const float* x, int64_t n) {
  // An element is Inf or NaN iff its exponent bits are all ones. The
  // test is folded over fixed blocks without a branch per element, a
  // loop of known length the compiler vectorizes at -O2; only each
  // block's verdict branches.
  constexpr int64_t kBlock = 128;
  constexpr uint32_t kExponent = 0x7f800000u;
  auto non_finite = [x](int64_t i) {
    uint32_t bits;
    std::memcpy(&bits, x + i, sizeof(bits));
    return static_cast<uint32_t>((bits & kExponent) == kExponent);
  };
  int64_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    uint32_t bad = 0;
    for (int64_t j = 0; j < kBlock; ++j) bad |= non_finite(i + j);
    if (bad != 0) return false;
  }
  uint32_t bad = 0;
  for (; i < n; ++i) bad |= non_finite(i);
  return bad == 0;
}

void FillKernel(float* x, float v, int64_t n) {
  // +0 is all-zero bits, and memset is the fastest store loop there is
  // (ZeroGrad fills with +0 every step). No workload fills with any
  // other value at length, so the rest is a plain loop.
  if (n <= 0) return;
  if (v == 0.0f && !std::signbit(v)) {
    std::memset(x, 0, sizeof(float) * static_cast<size_t>(n));
    return;
  }
  std::fill_n(x, n, v);
}

void SumRowsKernel(const float* x, int64_t rows, int64_t cols, float* out) {
  const internal::BlockedKernels& table = ActiveTable();
  for (int64_t r = 0; r < rows; ++r) table.add(out, x + r * cols, cols);
}

void SgdStepKernel(float* w, const float* g, float* v, int64_t n,
                   const SgdStep& step) {
  ActiveTable().sgd(w, g, v, n, step);
}

void RmsPropStepKernel(float* w, const float* g, float* ms, int64_t n,
                       const RmsPropStep& step) {
  ActiveTable().rmsprop(w, g, ms, n, step);
}

// ---- Serial conv references ----

namespace ref {

void Conv2dForwardKernel(const float* x, const float* w, const float* bias,
                         const ConvKernelShape& s, float* out) {
  const int64_t patch = s.Patch();
  const int64_t out_area = s.OutArea();
  const Im2ColSpec ispec{s.kernel, s.stride, s.pad};
  const int64_t in_size = s.in_channels * s.height * s.width;
  const int64_t out_size = s.out_channels * out_area;
  std::vector<float> cols(static_cast<size_t>(patch * out_area));
  for (int64_t i = 0; i < s.batch; ++i) {
    Im2Col(x + i * in_size, s.in_channels, s.height, s.width, ispec,
           cols.data());
    float* out_i = out + i * out_size;
    GemmAdd(w, cols.data(), s.out_channels, patch, out_area, out_i);
    for (int64_t oc = 0; oc < s.out_channels; ++oc) {
      float* plane = out_i + oc * out_area;
      const float bv = bias[oc];
      for (int64_t p = 0; p < out_area; ++p) plane[p] += bv;
    }
  }
}

void Conv2dBackwardKernel(const float* grad_out, const float* x,
                          const float* w, const ConvKernelShape& s, float* dx,
                          float* dw, float* db) {
  const int64_t patch = s.Patch();
  const int64_t out_area = s.OutArea();
  const Im2ColSpec ispec{s.kernel, s.stride, s.pad};
  const int64_t in_size = s.in_channels * s.height * s.width;
  const int64_t out_size = s.out_channels * out_area;
  std::vector<float> cols(static_cast<size_t>(patch * out_area));
  std::vector<float> dcols(static_cast<size_t>(patch * out_area));
  for (int64_t i = 0; i < s.batch; ++i) {
    const float* go = grad_out + i * out_size;
    if (db != nullptr) {
      for (int64_t oc = 0; oc < s.out_channels; ++oc) {
        const float* plane = go + oc * out_area;
        double acc = 0.0;
        for (int64_t p = 0; p < out_area; ++p) acc += plane[p];
        db[oc] += static_cast<float>(acc);
      }
    }
    if (dw != nullptr) {
      Im2Col(x + i * in_size, s.in_channels, s.height, s.width, ispec,
             cols.data());
      for (int64_t oc = 0; oc < s.out_channels; ++oc) {
        const float* grow = go + oc * out_area;
        float* dwrow = dw + oc * patch;
        for (int64_t p = 0; p < patch; ++p) {
          const float* crow = cols.data() + p * out_area;
          double acc = 0.0;
          for (int64_t a = 0; a < out_area; ++a) {
            acc += static_cast<double>(grow[a]) * crow[a];
          }
          dwrow[p] += static_cast<float>(acc);
        }
      }
    }
    if (dx != nullptr) {
      std::fill(dcols.begin(), dcols.end(), 0.0f);
      for (int64_t oc = 0; oc < s.out_channels; ++oc) {
        const float* wrow = w + oc * patch;
        const float* grow = go + oc * out_area;
        for (int64_t p = 0; p < patch; ++p) {
          const float wv = wrow[p];
          if (wv == 0.0f) continue;
          float* drow = dcols.data() + p * out_area;
          for (int64_t a = 0; a < out_area; ++a) {
            drow[a] = std::fmaf(wv, grow[a], drow[a]);
          }
        }
      }
      Col2Im(dcols.data(), s.in_channels, s.height, s.width, ispec,
             dx + i * in_size);
    }
  }
}

}  // namespace ref

}  // namespace rfed
