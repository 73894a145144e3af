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
//   2  transposed A of GemmTransAAdd
//   3  conv operands shared by a call's workers (calling thread): packed
//      weights, patch-row offsets, per-image dw/db partials
//   4  conv per-image buffers (each worker): padded image / gradient
//      planes, output staging grid
//   5  interleaved B panels of GemmTransBAssign
//   6  ScratchArena::kSpareSlot, never used by a kernel
inline constexpr int kSlotPackB = 0;
inline constexpr int kSlotPackA = 1;
inline constexpr int kSlotTransA = 2;
inline constexpr int kSlotConvOperands = 3;
inline constexpr int kSlotConvImage = 4;
inline constexpr int kSlotPackTB = 5;
static_assert(kSlotPackTB < ScratchArena::kSpareSlot,
              "kernel slots must leave the spare slot free");

/// One ISA's blocked-kernel entry points. Every implementation computes
/// the canonical fused summation order (kernels.h), so all tables are
/// bit-interchangeable; only throughput differs.
struct BlockedKernels {
  int mr;            ///< GemmAdd register tile rows.
  int nr;            ///< GemmAdd register tile columns (B panel width).
  int tr;            ///< GemmTransBAssign accumulator chains per panel.

  /// C[m,n] += A[m,k] B[k,n], blocked with `tile`, n-partitioned across
  /// the kernel pool when `parallel`.
  void (*gemm_add)(const float* a, const float* b, int64_t m, int64_t k,
                   int64_t n, float* c, const TileConfig& tile, bool parallel);

  /// C[m,k] = A[m,n] B[k,n]^T (double-precision row dots), row-chunked
  /// by tile.block_m, parallel across row chunks.
  void (*gemm_transb)(const float* a, const float* b, int64_t m, int64_t n,
                      int64_t k, float* c, const TileConfig& tile,
                      bool parallel);

  /// The padded-grid convolution (stride 1, pad < kernel; kernels.h has
  /// the contracts), batch-parallel across the kernel pool. `relu`
  /// clamps each image's outputs after the bias epilogue.
  void (*conv_forward)(const float* x, const float* w, const float* bias,
                       const ConvKernelShape& s, bool relu, float* out);
  void (*conv_backward)(const float* grad_out, const float* x,
                        const float* w, const ConvKernelShape& s, float* dx,
                        float* dw, float* db);

  /// ReluKernel / ReluMaskKernel bodies (kernels.h has the contracts).
  void (*relu)(const float* x, int64_t n, float* y);
  void (*relu_mask)(const float* g, const float* x, int64_t n, float* out);
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
