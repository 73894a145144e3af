// Portable blocked-kernel table, compiled at the baseline ISA of the
// build (no -m flags). The fused step is std::fmaf — glibc resolves it
// to the hardware FMA instruction when the CPU has one and to a
// correctly-rounded soft implementation otherwise, so this TU produces
// the canonical bits on every machine, merely slower than the SIMD
// tables. The in-place GEMM tile is at most 4x8, which keeps the
// accumulators in registers even at baseline x86-64 (8 xmm worth).

#include <cmath>

#include "tensor/kernels_blocked.h"

namespace rfed {
namespace internal {
namespace {

struct GenericTraits {
  static constexpr int64_t kNr = 8;
  static constexpr int64_t kConvLanes = 8;
  static constexpr int64_t kTileCols = kConvCols;
  static constexpr int64_t kTr = 4;
  // The sparse conv backward's scalar chains run one at a time, so a
  // 5x5 kernel takes one dw pass, and dx needs no lane padding.
  static constexpr int64_t kDwChains = 25;
  static constexpr int64_t kDxLanes = kConvRows;

  static float Fma(float a, float b, float acc) {
    return std::fmaf(a, b, acc);
  }

  template <int R>
  static void DotTile(const float* a, int64_t lda, const float* panel,
                      int64_t n, double* out) {
    // Plain mul+add: float*float is exact in double, so this is the
    // same bit sequence as a fused chain — no fma() call needed.
    double acc[R][kTr] = {};
    for (int64_t j = 0; j < n; ++j) {
      const float* bv = panel + j * kTr;
      for (int r = 0; r < R; ++r) {
        const double av = a[r * lda + j];
        for (int64_t t = 0; t < kTr; ++t) acc[r][t] += av * bv[t];
      }
    }
    for (int r = 0; r < R; ++r) {
      for (int64_t t = 0; t < kTr; ++t) out[r * kTr + t] = acc[r][t];
    }
  }

  template <int R, int V>
  static void InPlaceTile(const float* a, int64_t rs, int64_t ss,
                          const float* b, int64_t ld, int64_t steps,
                          float* c) {
    constexpr int64_t kW = V * kNr / 2;
    float acc[R][kW];
    for (int r = 0; r < R; ++r) {
      for (int64_t j = 0; j < kW; ++j) acc[r][j] = c[r * ld + j];
    }
    for (int64_t s = 0; s < steps; ++s) {
      const float* bv = b + s * ld;
      for (int r = 0; r < R; ++r) {
        const float av = a[r * rs + s * ss];
        for (int64_t j = 0; j < kW; ++j) {
          acc[r][j] = std::fmaf(av, bv[j], acc[r][j]);
        }
      }
    }
    for (int r = 0; r < R; ++r) {
      for (int64_t j = 0; j < kW; ++j) c[r * ld + j] = acc[r][j];
    }
  }

  // 8 scalar fmaf lanes per (channel, position).
  template <int Q>
  static void ConvTile(const float* wp, const float* base, const int64_t* off,
                       int64_t kc, float* c, int64_t ldc) {
    constexpr int64_t kW = Q * kConvLanes;
    float acc[kConvRows][kW] = {};
    for (int64_t p = 0; p < kc; ++p) {
      const float* bv = base + off[p];
      for (int64_t i = 0; i < kConvRows; ++i) {
        const float a = wp[p * kConvRows + i];
        for (int64_t j = 0; j < kW; ++j) {
          acc[i][j] = std::fmaf(a, bv[j], acc[i][j]);
        }
      }
    }
    for (int64_t i = 0; i < kConvRows; ++i) {
      for (int64_t j = 0; j < kW; ++j) c[i * ldc + j] = acc[i][j];
    }
  }

  static void CopyIntoInterleaved(const float* src, int64_t live, int64_t h,
                                  int64_t w, int64_t pad, int64_t wp,
                                  double* xd) {
    CopyIntoInterleavedRange(src, live, h, w, pad, wp, xd);
  }

  static void ConvSparseDw(const double* x, int64_t ldx, int64_t k,
                           int64_t rows, const int32_t* pos, const double* v,
                           int64_t n, double* out) {
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t kx = 0; kx < k; ++kx) {
        for (int64_t c = 0; c < kConvRows; ++c) {
          const double* xt = x + r * ldx + kx * kConvRows + c;
          double acc = 0.0;
          for (int64_t e = 0; e < n; ++e) acc += v[e] * xt[pos[e]];
          out[(r * k + kx) * kConvRows + c] = acc;
        }
      }
    }
  }

  static void ConvSparseDx(const float* w, const int32_t* wof, const float* v,
                           int64_t n, int64_t k, int64_t lanes, float* dx,
                           int64_t ld) {
    for (int64_t ky = 0; ky < k; ++ky) {
      for (int64_t j = 0; j < lanes; ++j) {
        float t = 0.0f;
        for (int64_t e = 0; e < n; ++e) {
          t = std::fmaf(w[wof[e] + ky * lanes + j], v[e], t);
        }
        dx[ky * ld + j] += t;
      }
    }
  }

  static void InterleaveLanes(const float* x, int64_t n, int64_t live,
                              const int64_t* pos, float* xl) {
    InterleaveLanesRange<kConvLanes>(x, n, live, pos, xl);
  }

  static void ReluPool(const float* sums, const float* bias,
                       int64_t channels, int64_t rows, int64_t cols,
                       int64_t live, int64_t stride, float* out,
                       uint8_t* window) {
    ReluPoolLanesRange<kConvLanes>(sums, bias, channels, rows, cols, live,
                                   stride, out, window);
  }

  static void Relu(const float* x, int64_t n, float* y) {
    ReluRange(x, n, y);
  }

  static void ReluMask(const float* g, const float* x, int64_t n,
                       float* out) {
    ReluMaskRange(g, x, n, out);
  }
};

}  // namespace

const BlockedKernels& GenericKernels() {
  static const BlockedKernels table = {
      &GemmInPlaceT<GenericTraits>,
      &GemmTransBBlockedT<GenericTraits>,
      // Without vector lanes the small path's 8 chains per output cost
      // more than interleaving B: 1.1-3.8x slower at m = 1..8 on the
      // served shapes (docs/KERNELS.md, "Small products").
      &GemmTransBBlockedT<GenericTraits>,
      &ConvForwardT<GenericTraits>,
      &ConvBlockBackwardT<GenericTraits>,
      &CollectLiveWinnersRange,
      GenericTraits::kConvLanes,
      &GenericTraits::ReluPool,
      &GenericTraits::Relu,
      &GenericTraits::ReluMask,
      &AddRange,
      &PlusZeroRange,
      &SubRange,
      &ScaleRange,
      &AxpyRange,
      &SgdRange,
      &RmsPropRange,
  };
  return table;
}

}  // namespace internal
}  // namespace rfed
