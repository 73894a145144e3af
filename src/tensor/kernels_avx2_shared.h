#ifndef RFED_TENSOR_KERNELS_AVX2_SHARED_H_
#define RFED_TENSOR_KERNELS_AVX2_SHARED_H_

// 256-bit members of the fused conv block's sparse backward that the
// AVX2 and AVX-512 tables share (kernels_blocked.h has the contracts).
// Only kernels_avx2.cc and kernels_avx512.cc include this header; like
// kernels_blocked.h, each compiles its own copy with its own flags.

#include <immintrin.h>

#include "tensor/kernels_blocked.h"

namespace rfed {
namespace internal {
namespace {

static_assert(kConvRows == 4, "one __m256d holds a position's channels");

// CopyIntoInterleavedRange, 4 x-positions per step: a row's 4 floats of
// each channel widen to one __m256d (exact), a 4x4 transpose turns the
// channel rows into position vectors, and each position's kConvRows
// doubles are one store. The channels at or past `live` are written as
// +0, which they already hold, and their rows are never read. When w is
// not a multiple of 4 the last step overlaps the one before and
// rewrites the same values; rows narrower than 4 run the scalar loop.
inline void CopyIntoInterleaved256(const float* src, int64_t live, int64_t h,
                                   int64_t w, int64_t pad, int64_t wp,
                                   double* xd) {
  if (w < 4) {
    CopyIntoInterleavedRange(src, live, h, w, pad, wp, xd);
    return;
  }
  const int64_t plane = h * w;
  for (int64_t y = 0; y < h; ++y) {
    const float* row = src + y * w;
    double* d = xd + ((y + pad) * wp + pad) * kConvRows;
    for (int64_t x0 = 0; x0 < w; x0 += 4) {
      const int64_t x = std::min(x0, w - 4);
      __m256d r[kConvRows];
      for (int64_t c = 0; c < kConvRows; ++c) {
        r[c] = c < live ? _mm256_cvtps_pd(_mm_loadu_ps(row + c * plane + x))
                        : _mm256_setzero_pd();
      }
      const __m256d t0 = _mm256_unpacklo_pd(r[0], r[1]);  // x, x+2
      const __m256d t1 = _mm256_unpackhi_pd(r[0], r[1]);  // x+1, x+3
      const __m256d t2 = _mm256_unpacklo_pd(r[2], r[3]);
      const __m256d t3 = _mm256_unpackhi_pd(r[2], r[3]);
      double* at = d + x * kConvRows;
      _mm256_storeu_pd(at, _mm256_permute2f128_pd(t0, t2, 0x20));
      _mm256_storeu_pd(at + 4, _mm256_permute2f128_pd(t1, t3, 0x20));
      _mm256_storeu_pd(at + 8, _mm256_permute2f128_pd(t0, t2, 0x31));
      _mm256_storeu_pd(at + 12, _mm256_permute2f128_pd(t1, t3, 0x31));
    }
  }
}

// ConvSparseDw for a kernel size that no model in the repository has:
// one tap's chain (a __m256d of the kConvRows channels) at a time.
inline void SparseDwTaps256(const double* x, int64_t ldx, int64_t k,
                            int64_t rows, const int32_t* pos, const double* v,
                            int64_t n, double* out) {
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t kx = 0; kx < k; ++kx) {
      const double* xt = x + r * ldx + kx * kConvRows;
      __m256d acc = _mm256_setzero_pd();
      for (int64_t e = 0; e < n; ++e) {
        acc = _mm256_fmadd_pd(_mm256_broadcast_sd(v + e),
                              _mm256_loadu_pd(xt + pos[e]), acc);
      }
      _mm256_storeu_pd(out + (r * k + kx) * kConvRows, acc);
    }
  }
}

}  // namespace
}  // namespace internal
}  // namespace rfed

#endif  // RFED_TENSOR_KERNELS_AVX2_SHARED_H_
