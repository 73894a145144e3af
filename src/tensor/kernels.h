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
// that read the GEMM operands where they lie, and can
// optionally run partitioned across a thread pool — while staying
// **bit-identical** to the retained reference implementations (rfed::ref
// below) for every ISA, block size and thread count. The rule that
// makes this possible:
//
//   Each output element is reduced by exactly one thread, in exactly the
//   canonical summation order: ascending over the contraction index with
//   ONE fused multiply-add rounding per step (float fma for the
//   accumulate GEMMs, a double-precision chain for GemmTransBAssign and
//   conv dw). Blocking and vectorization only reorder *which* elements
//   are in flight, never the operations within one element; the
//   parallel partition splits disjoint output regions, never a
//   reduction.
//
// Fused rounding is what lets the AVX2 path run at FMA throughput; the
// references implement the same contract with std::fmaf (correctly
// rounded on every platform, hardware FMA or not), so goldens are
// byte-stable across ISAs. The build compiles with -ffp-contract=off so
// no *implicit* contraction can ever diverge from this explicit scheme.
//
// Convolutions with stride 1 and pad < kernel (every model in the
// repository) never build an im2col matrix. The forward runs groups of
// images in the SIMD lanes (8, or 16 on the AVX-512 table, whose last
// group of at most 8 runs at 8): each group is zero-padded and
// interleaved once, so one vector holds an im2col entry for every image
// of the group, and only real outputs are computed. dw reads each
// image zero-padded, and dx runs on a grid of the output gradient
// padded by kernel - 1 - pad, with rows computed w + kernel - 1 wide
// and the extra columns dropped. dx adds padding terms that the
// reference's col2im skips. Such a term is a fused chain of w*0 from
// +0, i.e. +0, and for finite inputs padding zeros cannot change a
// chain that starts at +0: under round-to-nearest such a chain never
// reaches -0, and x + (+0) == x for every other x.
// Batch reductions (conv dw/db) add each image's result in ascending
// image order, the reference's float addition sequence. Other conv
// shapes run the reference loops. See docs/KERNELS.md for the full
// scheme and the per-ISA tile shapes.
//
// Caveat (documented, tested): the references skip multiplications by an
// exact 0.0f weight, and conv dx skips the out-of-image terms; the
// optimized kernels compute both. Under IEEE-754 round-to-nearest
// fma(+-0, b, acc) never changes a finite accumulator, so results are
// still bit-identical for finite inputs — but non-finite inputs
// (Inf/NaN weights) may produce NaN where the reference skipped the
// term.

/// Instruction-set selection for the blocked kernels. kAuto picks the
/// best path the CPU supports at runtime; the explicit values force a
/// path (tests pin each table to prove cross-ISA bit-identity). Forcing
/// kAvx2 on a CPU without AVX2+FMA, or kAvx512 on one without
/// AVX-512F/BW/VL/DQ, aborts. The kAvx512 table runs the fused conv
/// block 16 images per vector and shares every other kernel with kAvx2.
enum class KernelIsa { kAuto, kGeneric, kAvx2, kAvx512 };

/// The chunk sizes of the GEMM drivers' threaded partition: block_n
/// columns of C per chunk of the in-place GEMM (block_n outputs on
/// GemmTransBAssign's small path), block_m rows of A per chunk of the
/// interleaved GemmTransBAssign. The contraction always runs whole, in
/// ascending order, as bit-identity requires.
struct TileConfig {
  int block_m = 64;
  int block_n = 1024;
};

/// Global knobs of the kernel layer. All fields may be changed at run
/// time (tests shrink the blocks to force edge paths); reads are cheap.
/// Not thread-safe against concurrent mutation — set once before
/// training, as FlConfig/experiment_cli do.
struct KernelOptions {
  /// Worker threads for the n-partitioned kernels. <= 1 runs everything
  /// on the calling thread (the default: all existing call sites are
  /// unaffected). The partition is deterministic, so any value produces
  /// bit-identical results.
  int threads = 1;
  /// The GEMM drivers' TileConfig (the conv kernels need none: their
  /// contraction fits one register sweep).
  int block_m = 64;
  int block_n = 1024;
  /// Minimum 2*m*k*n FLOP count before a GEMM fans out to the pool;
  /// below it threading overhead dominates.
  int64_t parallel_min_flops = 1 << 21;
  /// SIMD dispatch override; kAuto = best supported.
  KernelIsa isa = KernelIsa::kAuto;
};

/// The process-wide options instance the kernels read.
const KernelOptions& GetKernelOptions();
/// Replaces the options wholesale (tests: block-size overrides).
void SetKernelOptions(const KernelOptions& options);
/// Sets only the thread count (the FlConfig/--kernel_threads knob).
void SetKernelThreads(int threads);

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

/// Runs fn(chunk) for chunk in [0, chunks) on the kernel pool when
/// options.threads > 1 (serially otherwise, or when the pool is already
/// busy — values never depend on the choice). fn must write disjoint
/// state per chunk.
template <typename Fn>
void KernelParallelFor(int64_t chunks, const Fn& fn);
namespace internal {
void ParallelForImpl(int64_t chunks, const void* ctx,
                     void (*trampoline)(const void*, int64_t));
}
template <typename Fn>
void KernelParallelFor(int64_t chunks, const Fn& fn) {
  internal::ParallelForImpl(
      chunks, &fn, +[](const void* ctx, int64_t i) {
        (*static_cast<const Fn*>(ctx))(i);
      });
}

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
/// even; out and window need no zeroing. When stride == 1 and
/// pad < kernel, 8 or 16 images share each SIMD vector (the table's lane
/// groups), batch-parallel; other shapes run the reference sums and the
/// scalar epilogue. Bit-identical to ref::Conv2dForwardKernel, then
/// max(0, ·) (NaN gives +0), then a 2x2 pool whose first strict maximum
/// wins (ties keep the earlier input).
void Conv2dBiasReluPoolForwardKernel(const float* x, const float* w,
                                     const float* bias,
                                     const ConvKernelShape& s, float* out,
                                     uint8_t* window);

/// Gradients of the conv alone from the full-size output's gradient
/// grad_out [B, Cout, Ho, Wo]; any of dx/dw/db may be null to skip,
/// non-null outputs must be pre-zeroed. Batch-parallel, with dw/db added
/// per image in ascending image order — the reference's exact float
/// addition sequence. Bit-identical to ref::Conv2dBackwardKernel.
void Conv2dBackwardKernel(const float* grad_out, const float* x,
                          const float* w, const ConvKernelShape& s, float* dx,
                          float* dw, float* db);

/// Gradients of Conv2dBiasReluPoolForwardKernel from the upstream grad
/// of its pooled output y [B, Cout, Ho/2, Wo/2] and the window bytes it
/// recorded; outputs as in Conv2dBackwardKernel. The conv output's
/// gradient is 0 + grad at a window's winner where y > 0 and +0
/// everywhere else. On the padded grid, with finite grad (and finite x
/// when dw is wanted, finite w when dx is), only those live winners'
/// terms are added, in the dense order; otherwise the routed gradient
/// is built and Conv2dBackwardKernel's path runs on it. Either way the
/// bits are those of Conv2dBackwardKernel on the routed gradient, and
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
// the conv references serve the shapes the padded grid does not take.
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
