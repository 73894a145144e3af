#ifndef RFED_TENSOR_KERNELS_DISPATCH_H_
#define RFED_TENSOR_KERNELS_DISPATCH_H_

// Internal interface between the ISA-neutral kernel driver (kernels.cc)
// and the per-ISA blocked-kernel translation units (kernels_generic.cc,
// kernels_avx2.cc). Each ISA TU is compiled with its own instruction-set
// flags and exports one BlockedKernels table; kernels.cc picks a table
// at runtime from CPU detection plus the KernelOptions::isa override.
// Not part of the public API.

#include <cstdint>

#include "tensor/kernels.h"

namespace rfed {
namespace internal {

// Scratch slot convention (one ScratchArena per thread; nested kernel
// calls must use disjoint slots):
//   0  packed B panels of GemmAdd
//   1  packed A tile of GemmAdd
//   2  conv operands shared by a call's workers (calling thread): packed
//      weights, patch-row offsets, per-image dw/db partials
//   3  conv per-image buffers (each worker): padded image / gradient
//      planes, output staging grid
//   4  interleaved B panels of GemmTransBAssign, or its transposed A
//      when the small path runs
//   5  ScratchArena::kSpareSlot, never used by a kernel
inline constexpr int kSlotPackB = 0;
inline constexpr int kSlotPackA = 1;
inline constexpr int kSlotConvOperands = 2;
inline constexpr int kSlotConvImage = 3;
inline constexpr int kSlotPackTB = 4;
static_assert(kSlotPackTB < ScratchArena::kSpareSlot,
              "kernel slots must leave the spare slot free");

/// The shape rules of the GEMMs.
///
/// GemmAdd runs in place (BlockedKernels::gemm_in_place) when A has at
/// most kInPlaceMaxRows rows or B holds at most kInPlaceMaxBFloats
/// floats, and packed (gemm_add) otherwise. The in-place tiles re-read
/// B's rows from B once per 4 rows of A; that is cheap while B stays in
/// the first cache levels, and packing only pays once many row tiles
/// re-read a larger B.
///
/// GemmTransBAssign with at most kInPlaceMaxRows rows of A runs the
/// small path (gemm_transb_small), which transposes A instead of
/// interleaving B: at such m, A is the smaller operand to move. The
/// limit is the tile's: one transposed column of A is two __m256d.
///
/// The limits come from bench_micro_kernels' mnist_round_*,
/// sent140_round_* and cifar_round_fc_* rows and a same-process sweep of
/// both paths (docs/KERNELS.md, "Small products").
inline constexpr int64_t kInPlaceMaxRows = 8;
inline constexpr int64_t kInPlaceMaxBFloats = 16384;
inline bool GemmAddInPlace(int64_t m, int64_t k, int64_t n) {
  return m <= kInPlaceMaxRows || k * n <= kInPlaceMaxBFloats;
}
inline bool GemmTransBSmall(int64_t m) { return m <= kInPlaceMaxRows; }

/// One ISA's blocked-kernel entry points. Every implementation computes
/// the canonical fused summation order (kernels.h), so all tables are
/// bit-interchangeable; only throughput differs.
struct BlockedKernels {
  /// C[m,n] += A[m,k] B[k,n], blocked with `tile`, n-partitioned across
  /// the kernel pool when `parallel`.
  void (*gemm_add)(const float* a, const float* b, int64_t m, int64_t k,
                   int64_t n, float* c, const TileConfig& tile, bool parallel);

  /// C[rows,n] += A B with A read where it lies: element (r, s) of A is
  /// a[r*rs + s*ss], B is [steps, n] and C [rows, n], both row-major;
  /// each element takes one fused step per s, ascending. Nothing is
  /// packed. Column chunks of tile.block_n are the parallel partition.
  /// GemmAdd where GemmAddInPlace says so (rs = k, ss = 1) and every
  /// GemmTransAAdd (rs = 1, ss = k) run here.
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

  /// The padded-grid convolution (stride 1, pad < kernel; kernels.h has
  /// the contracts), batch-parallel across the kernel pool. With a null
  /// `window` each image's grid goes out through the bias epilogue as
  /// [Cout, Ho, Wo]; otherwise through conv_relu_pool, as the pooled
  /// [Cout, Ho/2, Wo/2] plus one window byte per pooled output.
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
  /// per-image dw/db partials. Ho and Wo are even.
  void (*conv_block_backward)(const float* grad, const float* y,
                              const uint8_t* window, const float* x,
                              const float* w, const ConvKernelShape& s,
                              float* dx, float* dw, float* db);

  /// The fused conv epilogue: for each of `channels` planes of
  /// rows x cols conv sums (rows, cols even; element (c, y, x) at
  /// grid[c*plane + y*ld + x]), adds bias[c], takes max(0, ·) and pools
  /// 2x2 with stride 2, writing the pooled [channels, rows/2, cols/2] to
  /// out and each output's winner (0..3, row-major in its window) to
  /// window. The first strict maximum wins. Reads nothing past the
  /// region's last element, grid[(channels-1)*plane + (rows-1)*ld +
  /// cols - 1]; what lies between its rows and planes may be read but
  /// never reaches an output.
  void (*conv_relu_pool)(const float* grid, int64_t ld, int64_t plane,
                         const float* bias, int64_t channels, int64_t rows,
                         int64_t cols, float* out, uint8_t* window);

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

}  // namespace internal
}  // namespace rfed

#endif  // RFED_TENSOR_KERNELS_DISPATCH_H_
