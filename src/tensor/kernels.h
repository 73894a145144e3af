#ifndef RFED_TENSOR_KERNELS_H_
#define RFED_TENSOR_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace rfed {

// High-performance deterministic compute kernels.
//
// This layer owns the hot inner loops of the simulator: the three GEMM
// variants every Linear/LSTM forward and backward bottoms out in, the
// Conv2d forward and backward, the ReLU and the element-wise loops of
// the training step (tensor arithmetic, the optimizer updates). The
// kernels run explicit SIMD register tiles (AVX2+FMA where the CPU has
// it, AVX-512 for the fused conv block where it has that too, a
// portable soft-fma fallback everywhere else, dispatched at runtime)
// that read the GEMM operands where they lie, on the calling thread —
// while staying **bit-identical** to the retained reference
// implementations (rfed::ref below) for every ISA. The rule that makes
// this possible:
//
//   Each output element is reduced in exactly the canonical summation
//   order: ascending over the contraction index with ONE fused
//   multiply-add rounding per step (float fma for the accumulate GEMMs,
//   a double-precision chain for GemmTransBAssign and conv dw).
//   Blocking and vectorization only reorder *which* elements are in
//   flight, never the operations within one element.
//
// Concurrency lives one level up, across clients (FlConfig::num_threads):
// each kernel call runs on one thread (docs/KERNELS.md, "Why the kernels
// run on one thread").
//
// Fused rounding is what lets the AVX2 path run at FMA throughput; the
// references implement the same contract with std::fmaf (correctly
// rounded on every platform, hardware FMA or not), so goldens are
// byte-stable across ISAs. The build compiles with -ffp-contract=off so
// no *implicit* contraction can ever diverge from this explicit scheme.
//
// Convolutions with stride 1 (every model in the repository) never
// build an im2col matrix. The forward runs groups of images in the SIMD
// lanes (8, or 16 on the AVX-512 table, whose last group of at most 8
// runs at 8): each group is zero-padded and interleaved once, so one
// vector holds an im2col entry for every image of the group, and only
// real outputs are computed. The fused block's backward adds terms only
// for the pooled windows' live winners, on a zero-padded grid, when its
// operands are finite; otherwise it runs the reference on the routed
// gradient.
// Batch reductions (conv dw/db) add each image's result in ascending
// image order, the reference's float addition sequence. Other conv
// shapes run the reference loops. See docs/KERNELS.md for the full
// scheme and the per-ISA tile shapes.
//
// Caveat (documented, tested): the references skip multiplications by
// an exact 0.0f weight (A of the GEMMs, w of the conv forward); the
// optimized GEMMs and the conv forward compute them. Under IEEE-754
// round-to-nearest fma(+-0, b, acc) never changes a finite accumulator,
// so results are still bit-identical for finite inputs — but non-finite
// inputs may produce NaN where the reference skipped the term. The conv
// block's backward has no such gap: it runs the reference itself
// whenever an operand it reads is not finite.

/// Instruction-set selection for the blocked kernels. kAuto picks the
/// best path the CPU supports at runtime; the explicit values force a
/// path (tests pin each table to prove cross-ISA bit-identity). Forcing
/// kAvx2 on a CPU without AVX2+FMA, or kAvx512 on one without
/// AVX-512F/BW/VL/DQ, aborts. The kAvx512 table runs the fused conv
/// block 16 images per vector and shares every other kernel with kAvx2.
enum class KernelIsa { kAuto, kGeneric, kAvx2, kAvx512 };

/// Global knob of the kernel layer. It may be changed at run time (tests
/// pin each table); reads are cheap. Not thread-safe against concurrent
/// mutation — set it before training.
struct KernelOptions {
  /// SIMD dispatch override; kAuto = best supported.
  KernelIsa isa = KernelIsa::kAuto;
};

/// Replaces the process-wide options the kernels read (tests: table
/// overrides).
void SetKernelOptions(const KernelOptions& options);

/// The ISA the next kernel call will run on, after applying the
/// KernelOptions override to what the CPU supports.
KernelIsa ActiveKernelIsa();
/// Short stable name ("avx512", "avx2", "generic") — used in test and
/// bench output.
const char* KernelIsaName(KernelIsa isa);
/// Whether this build+CPU can run the AVX2+FMA path.
bool KernelAvx2Available();
/// Whether this build+CPU can run the AVX-512 path (AVX-512F, BW, VL and
/// DQ, plus the AVX2 path whose kernels it shares).
bool KernelAvx512Available();

/// Grow-only per-thread scratch buffers the kernels pack operands and
/// padded images into, so steady-state training allocates nothing per
/// call. Each caller owns a slot id (see kernels_dispatch.h for the
/// convention); a slot's pointer is valid until the same thread requests
/// the same slot again. A process-wide high-water mark of allocated
/// scratch is kept for the RunHistory accounting.
class ScratchArena {
 public:
  static constexpr int kMaxSlots = 4;
  /// The one slot no kernel uses; tests and tools may claim it.
  static constexpr int kSpareSlot = kMaxSlots - 1;

  /// The calling thread's arena.
  static ScratchArena& ThreadLocal();

  /// Returns `bytes` of 64-byte-aligned storage for `slot` (contents
  /// unspecified), growing the slot if needed.
  void* Bytes(int slot, size_t bytes);
  /// Bytes() viewed as `floats` floats.
  float* Buffer(int slot, size_t floats) {
    return static_cast<float*>(Bytes(slot, floats * sizeof(float)));
  }

  /// Peak total scratch bytes allocated across all thread arenas since
  /// start (or the last ResetPeak).
  static int64_t PeakBytes();
  static void ResetPeak();

 private:
  ScratchArena() = default;
  ~ScratchArena();
  struct Slot {
    void* data = nullptr;
    size_t capacity = 0;  // bytes
  };
  Slot slots_[kMaxSlots];
};

// ---- Blocked kernels (row-major raw pointers) ----
// None of the output pointers may alias the inputs.

/// C[m,n] += A[m,k] * B[k,n]. Bit-identical to ref::GemmAdd. Register
/// tiles read A and B where they lie; nothing is packed
/// (docs/KERNELS.md, "Small products").
void GemmAdd(const float* a, const float* b, int64_t m, int64_t k, int64_t n,
             float* c);

/// C[k,n] += A[m,k]^T * B[m,n]. Bit-identical to ref::GemmTransAAdd.
/// Reads A's columns in place; nothing is transposed or packed.
void GemmTransAAdd(const float* a, const float* b, int64_t m, int64_t k,
                   int64_t n, float* c);

/// C[m,k] = A[m,n] * B[k,n]^T, each element one double-precision dot of
/// two contiguous rows. Bit-identical to ref::GemmTransBAssign.
void GemmTransBAssign(const float* a, const float* b, int64_t m, int64_t n,
                      int64_t k, float* c);

// ---- Convolution ----

/// Unfolds one NCHW image x [cin, h, w] into im2col columns
/// cols [cin*k*k, ho*wo] for a square kernel (zero padding outside).
struct Im2ColSpec {
  int64_t kernel = 0;
  int64_t stride = 1;
  int64_t pad = 0;
};
void Im2Col(const float* x, int64_t cin, int64_t h, int64_t w,
            const Im2ColSpec& spec, float* cols);

/// Adjoint of Im2Col: accumulates column gradients back into dx
/// [cin, h, w] (dx must be pre-zeroed by the caller; overlapping windows
/// add).
void Col2Im(const float* cols, int64_t cin, int64_t h, int64_t w,
            const Im2ColSpec& spec, float* dx);

/// Shape bundle of one NCHW convolution (square kernel).
struct ConvKernelShape {
  int64_t batch = 0;
  int64_t in_channels = 0;
  int64_t height = 0;
  int64_t width = 0;
  int64_t out_channels = 0;
  int64_t kernel = 0;
  int64_t stride = 1;
  int64_t pad = 0;

  int64_t OutH() const { return (height + 2 * pad - kernel) / stride + 1; }
  int64_t OutW() const { return (width + 2 * pad - kernel) / stride + 1; }
  int64_t OutArea() const { return OutH() * OutW(); }
  int64_t Patch() const { return in_channels * kernel * kernel; }
};

/// maxpool2x2(relu(conv(x[B, Cin, H, W], w[Cout, Cin*K*K]) + bias)) in
/// one pass: each image's conv sums get the bias, max(0, ·) and a 2x2
/// max pool (stride 2) while they are still in cache, so only the pooled
/// out [B, Cout, Ho/2, Wo/2] is written, with window[i] (0..3, row-major
/// in the window) naming the input that won output i. Ho and Wo must be
/// even; out and window need no zeroing. When stride == 1 (any pad), 8
/// or 16 images share each SIMD vector (the table's lane groups); other
/// shapes run the reference sums and the scalar epilogue. Bit-identical
/// to ref::Conv2dForwardKernel, then max(0, ·) (NaN gives +0), then a
/// 2x2 pool whose first strict maximum wins (ties keep the earlier
/// input).
void Conv2dBiasReluPoolForwardKernel(const float* x, const float* w,
                                     const float* bias,
                                     const ConvKernelShape& s, float* out,
                                     uint8_t* window);

/// Gradients of Conv2dBiasReluPoolForwardKernel from the upstream grad
/// of its pooled output y [B, Cout, Ho/2, Wo/2] and the window bytes it
/// recorded: dx [B, Cin, H, W], dw [Cout, Cin*K*K] and db [Cout], any of
/// them null to skip, non-null ones pre-zeroed. The conv output's
/// gradient is 0 + grad at a window's winner where y > 0 and +0
/// everywhere else. On the padded grid, with finite grad (and finite x
/// when dw is wanted, finite w when dx is), only those live winners'
/// terms are added, in the reference's order, with dw/db added per
/// image in ascending image order; otherwise the routed gradient is
/// built and ref::Conv2dBackwardKernel runs on it. Either way the bits
/// are those of ref::Conv2dBackwardKernel on the routed gradient, and
/// one conv2d_bwd span is recorded.
void Conv2dBiasReluPoolBackwardKernel(const float* grad, const float* y,
                                      const uint8_t* window, const float* x,
                                      const float* w, const ConvKernelShape& s,
                                      float* dx, float* dw, float* db);

// ---- Activations ----
// Branch-free: the compare becomes a bit mask (AVX2: max_ps / cmp_ps
// lanes), so activations of random sign cost no mispredictions. Both
// are elementwise and allow in-place use (y == x, out == g).

/// y[i] = std::max(0.0f, x[i]) bit for bit: NaN and -0 give +0.
void ReluKernel(const float* x, int64_t n, float* y);

/// out[i] = x[i] <= 0 ? +0 : g[i] — the ReLU backward mask. The
/// gradient passes where x is NaN (the compare is false).
void ReluMaskKernel(const float* g, const float* x, int64_t n, float* out);

// ---- Element-wise ----
// Each element runs the operations of the scalar loop named in its
// comment, in that order and unfused (the build's -ffp-contract=off
// forbids contraction), so every table gives the scalar loop's bits,
// NaN, Inf, -0 and denormals included. Outputs may equal inputs
// exactly; partial overlap is not allowed.

/// x[i] = x[i] + y[i].
void AddKernel(float* x, const float* y, int64_t n);
/// y[i] = 0.0f + x[i]: the bits AddKernel gives when it adds x onto a
/// +0 buffer (-0 becomes +0). How a gradient takes its first
/// contribution (GraphNode::AccumulateGrad).
void PlusZeroKernel(const float* x, int64_t n, float* y);
/// x[i] = x[i] - y[i].
void SubKernel(float* x, const float* y, int64_t n);
/// x[i] = x[i] * s.
void ScaleKernel(float* x, float s, int64_t n);
/// x[i] = x[i] + s * y[i].
void AxpyKernel(float* x, float s, const float* y, int64_t n);
/// x[i] = v.
void FillKernel(float* x, float v, int64_t n);
/// True iff no x[i] is NaN or +-Inf. Branch-free within blocks of 128.
bool AllFiniteKernel(const float* x, int64_t n);
/// out[c] = out[c] + x[r, c] for r = 0, 1, ..., rows - 1: vectorized
/// across columns, so each column keeps its row order.
void SumRowsKernel(const float* x, int64_t rows, int64_t cols, float* out);

/// Hyperparameters of one SGD update (see SgdStepKernel).
struct SgdStep {
  float lr = 0.0f;
  float weight_decay = 0.0f;
  float momentum = 0.0f;
};
/// Without velocity (v == nullptr): w[i] = w[i] - lr * (g[i] + wd * w[i]).
/// With it: v[i] = momentum * v[i] + g[i] + wd * w[i], then
/// w[i] = w[i] - lr * v[i].
void SgdStepKernel(float* w, const float* g, float* v, int64_t n,
                   const SgdStep& step);

/// Hyperparameters of one RMSProp update (see RmsPropStepKernel).
struct RmsPropStep {
  float lr = 0.0f;
  float alpha = 0.0f;
  float eps = 0.0f;
};
/// ms[i] = alpha * ms[i] + (1 - alpha) * g[i] * g[i], then
/// w[i] = w[i] - lr * g[i] / (sqrt(ms[i]) + eps). IEEE sqrt and division
/// are correctly rounded in every table.
void RmsPropStepKernel(float* w, const float* g, float* ms, int64_t n,
                       const RmsPropStep& step);

// ---- Canonical-order references ----
// The scalar ground-truth kernels: portable, single-threaded, no
// blocking, one std::fma(f) per reduction step — the canonical
// summation order every optimized path must reproduce bit for bit
// (tests/kernel_test.cc) and the speedup baseline for
// bench_micro_kernels. The GEMM references run on no production path;
// the conv references serve the shapes the padded grid does not take,
// and the conv backward also the conv block's non-finite operands.
// These descend from the seed's naive loops; the only numeric change
// since the seed is the fused rounding, made when the SIMD microkernels
// landed (goldens regenerated once, see
// docs/KERNELS.md).
namespace ref {

/// C[m,n] += A[m,k] * B[k,n], ikj order, fused steps, skipping zero A
/// elements.
void GemmAdd(const float* a, const float* b, int64_t m, int64_t k, int64_t n,
             float* c);
/// C[k,n] += A[m,k]^T * B[m,n], i-outer order, fused steps, skipping
/// zero A elements.
void GemmTransAAdd(const float* a, const float* b, int64_t m, int64_t k,
                   int64_t n, float* c);
/// C[m,k] = A[m,n] * B[k,n]^T via double-precision row dots. (For float
/// inputs the double product is exact, so mul+add and fma chains are
/// the same bits — this kernel is unchanged from the seed.)
void GemmTransBAssign(const float* a, const float* b, int64_t m, int64_t n,
                      int64_t k, float* c);

/// The serial im2col + GemmAdd convolution forward (out pre-zeroed).
void Conv2dForwardKernel(const float* x, const float* w, const float* bias,
                         const ConvKernelShape& s, float* out);
/// The serial convolution backward: im2col + double dots for dw,
/// GemmTransAAdd-order dcols + Col2Im for dx (outputs pre-zeroed,
/// nullable).
void Conv2dBackwardKernel(const float* grad_out, const float* x,
                          const float* w, const ConvKernelShape& s, float* dx,
                          float* dw, float* db);

}  // namespace ref

}  // namespace rfed

#endif  // RFED_TENSOR_KERNELS_H_
