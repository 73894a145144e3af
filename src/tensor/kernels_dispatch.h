#ifndef RFED_TENSOR_KERNELS_DISPATCH_H_
#define RFED_TENSOR_KERNELS_DISPATCH_H_

// Internal interface between the ISA-neutral kernel driver (kernels.cc)
// and the per-ISA blocked-kernel translation units (kernels_generic.cc,
// kernels_avx2.cc, kernels_avx512.cc). Each ISA TU is compiled with its
// own instruction-set flags and exports one BlockedKernels table;
// kernels.cc picks a table at runtime from CPU detection plus the
// KernelOptions::isa override. Not part of the public API.

#include <cstdint>

#include "tensor/kernels.h"

namespace rfed {
namespace internal {

// Scratch slot convention (one ScratchArena per thread; nested kernel
// calls must use disjoint slots):
//   0  conv operands shared by a call's workers (calling thread): packed
//      weights, patch-row offsets, the forward's input positions,
//      per-image dw/db partials
//   1  conv per-chunk buffers (each worker): the forward's lane grid
//      and conv sums, the backward's padded image and gradient planes
//   2  interleaved B panels of GemmTransBAssign, or its transposed A
//      when the small path runs
//   3  ScratchArena::kSpareSlot, never used by a kernel
// GemmAdd and GemmTransAAdd run in place and claim no slot.
inline constexpr int kSlotConvOperands = 0;
inline constexpr int kSlotConvImage = 1;
inline constexpr int kSlotPackTB = 2;
static_assert(kSlotPackTB < ScratchArena::kSpareSlot,
              "kernel slots must leave the spare slot free");

/// The shape rule of GemmTransBAssign: with at most kInPlaceMaxRows
/// rows of A it runs the small path (gemm_transb_small), which
/// transposes A instead of interleaving B: at such m, A is the smaller
/// operand to move. The limit is the tile's: one transposed column of A
/// is two __m256d. It comes from bench_micro_kernels' mnist_round_* and
/// sent140_round_* rows and a same-process sweep of both paths
/// (docs/KERNELS.md, "Small products").
inline constexpr int64_t kInPlaceMaxRows = 8;
inline bool GemmTransBSmall(int64_t m) { return m <= kInPlaceMaxRows; }

/// One channel's live winners for the fused block's sparse backward, in
/// ascending (oy, ox): per pooled row of the ph x pw pooled outputs,
/// the windows whose output passed the ReLU (y > 0) with a winner in the
/// top row (window byte & 3 < 2), ascending px, then those with a winner
/// in the bottom row. Each winner's entry is its offset into the
/// interleaved padded grid (rows wp positions wide, kConvRows floats per
/// position) and its value 0 + g as a double. pos and v hold
/// ph*pw + kWinnerSlack entries; those past the returned count are
/// unspecified.
inline constexpr int64_t kWinnerSlack = 8;
using LiveWinnersFn = int64_t (*)(const float* g, const float* y,
                                  const uint8_t* window, int64_t ph,
                                  int64_t pw, int64_t wp, int32_t* pos,
                                  double* v);

/// One ISA's blocked-kernel entry points. Every implementation computes
/// the canonical fused summation order (kernels.h), so all tables are
/// bit-interchangeable; only throughput differs.
struct BlockedKernels {
  /// C[rows,n] += A B with A read where it lies: element (r, s) of A is
  /// a[r*rs + s*ss], B is [steps, n] and C [rows, n], both row-major;
  /// each element takes one fused step per s, ascending. Nothing is
  /// packed. Column chunks of tile.block_n are the parallel partition.
  /// Every GemmAdd (rs = k, ss = 1) and every GemmTransAAdd (rs = 1,
  /// ss = k) runs here.
  void (*gemm_in_place)(const float* a, int64_t rs, int64_t ss,
                        const float* b, int64_t rows, int64_t steps,
                        int64_t n, float* c, const TileConfig& tile,
                        bool parallel);

  /// C[m,k] = A[m,n] B[k,n]^T (double-precision row dots), row-chunked
  /// by tile.block_m, parallel across row chunks.
  void (*gemm_transb)(const float* a, const float* b, int64_t m, int64_t n,
                      int64_t k, float* c, const TileConfig& tile,
                      bool parallel);
  /// The same product for m <= kInPlaceMaxRows: A transposed once, B's
  /// rows read in place; chunks of tile.block_n outputs are the parallel
  /// partition. The generic table, where that is slower, puts
  /// gemm_transb here too.
  void (*gemm_transb_small)(const float* a, const float* b, int64_t m,
                            int64_t n, int64_t k, float* c,
                            const TileConfig& tile, bool parallel);

  /// The convolution (stride 1, pad < kernel; kernels.h has the
  /// contracts), batch-parallel across the kernel pool. The forward is
  /// the fused conv block (Conv2dBiasReluPoolForwardKernel, Ho and Wo
  /// even): it runs groups of conv_lanes images in the SIMD lanes (a
  /// last group of at most 8 at 8 lanes), computes only real outputs,
  /// and conv_relu_pool writes each image's pooled [Cout, Ho/2, Wo/2]
  /// plus one window byte per pooled output. `window` is never null.
  void (*conv_forward)(const float* x, const float* w, const float* bias,
                       const ConvKernelShape& s, float* out,
                       uint8_t* window);
  void (*conv_backward)(const float* grad_out, const float* x,
                        const float* w, const ConvKernelShape& s, float* dx,
                        float* dw, float* db);
  /// The padded-grid backward of the fused conv block
  /// (Conv2dBiasReluPoolBackwardKernel) for finite x, w and grad: reads
  /// the pooled gradient, output and window directly and adds terms
  /// only for the winners that passed the ReLU, batch-parallel with
  /// per-image dw/db partials. Ho and Wo are even. The winner lists come
  /// from `live_winners`, the calling table's entry.
  void (*conv_block_backward)(const float* grad, const float* y,
                              const uint8_t* window, const float* x,
                              const float* w, const ConvKernelShape& s,
                              float* dx, float* dw, float* db,
                              LiveWinnersFn live_winners);
  LiveWinnersFn live_winners;

  /// Images per lane group of conv_forward and conv_relu_pool: 8, or 16.
  int64_t conv_lanes;
  /// The fused conv epilogue on the lane grid: `sums` holds `channels`
  /// planes of rows x cols conv sums (rows, cols even) for L = conv_lanes
  /// images, element (c, y, x) of lane l at
  /// sums[((c*rows + y)*cols + x)*L + l], aligned to 4*L bytes. Each sum
  /// gets bias[c] and max(0, ·), and each 2x2 window (stride 2) its
  /// first strict maximum. Lane l < live writes
  /// its pooled [channels, rows/2, cols/2] to out + l*stride and each
  /// output's winner (0..3, row-major in its window) to
  /// window + l*stride. Lanes past `live` read their sums but write
  /// nothing.
  void (*conv_relu_pool)(const float* sums, const float* bias,
                         int64_t channels, int64_t rows, int64_t cols,
                         int64_t live, int64_t stride, float* out,
                         uint8_t* window);

  /// ReluKernel / ReluMaskKernel bodies (kernels.h has the contracts).
  void (*relu)(const float* x, int64_t n, float* y);
  void (*relu_mask)(const float* g, const float* x, int64_t n, float* out);

  /// The element-wise kernels of kernels.h (AddKernel ... RmsPropKernel).
  void (*add)(float* x, const float* y, int64_t n);
  void (*sub)(float* x, const float* y, int64_t n);
  void (*scale)(float* x, float s, int64_t n);
  void (*axpy)(float* x, float s, const float* y, int64_t n);
  void (*sgd)(float* w, const float* g, float* v, int64_t n,
              const SgdStep& step);
  void (*rmsprop)(float* w, const float* g, float* ms, int64_t n,
                  const RmsPropStep& step);
};

/// The portable table (always available; soft-fma, compiled at the
/// baseline ISA).
const BlockedKernels& GenericKernels();

/// The AVX2+FMA table, or nullptr when the build could not compile it
/// (non-x86 target or a compiler without -mavx2/-mfma). Whether the
/// *CPU* can run it is a separate, runtime question (KernelAvx2Available).
const BlockedKernels* Avx2KernelsOrNull();

/// The AVX-512 table (the fused conv block's forward, its sparse
/// backward and winner lists at 512 bits, every other entry the AVX2
/// table's), or nullptr when the build could not compile it or has no
/// AVX2 table (KernelAvx512Available is the runtime check).
const BlockedKernels* Avx512KernelsOrNull();

}  // namespace internal
}  // namespace rfed

#endif  // RFED_TENSOR_KERNELS_DISPATCH_H_
