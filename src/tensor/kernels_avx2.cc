// AVX2+FMA blocked-kernel table. This is the only TU compiled with
// -mavx2 -mfma (CMake sets RFED_HAVE_AVX2 when the compiler accepts
// them), so no AVX instruction can leak into code that runs on
// non-AVX CPUs; kernels.cc only calls into this table after
// __builtin_cpu_supports confirms the CPU at runtime.
//
// In-place GEMM tile (every GemmAdd and GemmTransAAdd): up to 4 rows x
// 16 columns, A broadcast from where it lies, B rows loaded straight
// from B; 8 named accumulators, exactly enough chains to cover FMA
// latency. Each accumulator element advances by one _mm256_fmadd_ps
// per step, which is exactly the canonical fused order; vfmadd and
// std::fmaf round identically (both are the correctly rounded fused
// operation), so the tile is bit-equal to the generic and reference
// paths by construction.
//
// GemmTransBAssign: 8 double chains per panel and row via
// _mm256_fmadd_pd on widened floats, 4 rows at once; on the small path
// (m <= 8) 8 chains per output, one per row of the transposed A.
// float*float is exact in double, so the fused chain is bit-equal to
// the reference's mul+add chain.
//
// Conv epilogue (bias, ReLU, 2x2 max-pool): 8 pooled outputs per step,
// the even and odd columns of a grid row pair split into four vectors,
// one per window position; a short row's step runs full lanes too.
//
// Element-wise kernels: 8 lanes per instruction, each lane running the
// scalar loop's operations in order (no FMA), tails on the scalar loops.

#ifdef RFED_HAVE_AVX2

#include <immintrin.h>

#include <cmath>

#include "tensor/kernels_blocked.h"

namespace rfed {
namespace internal {
namespace {

struct Avx2Traits {
  static constexpr int64_t kNr = 16;
  static constexpr int64_t kTr = 8;
  static constexpr int64_t kDwChains = 15;
  static constexpr int64_t kDxLanes = 8;

  static float Fma(float a, float b, float acc) {
    return std::fmaf(a, b, acc);
  }

  // Four rows of A against one panel: per j, one panel load widened to
  // two __m256d of 4 outputs each, shared by every row's chains.
  template <int R>
  static void DotTile(const float* a, int64_t lda, const float* panel,
                      int64_t n, double* out) {
    __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
    __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
    __m256d a20 = _mm256_setzero_pd(), a21 = _mm256_setzero_pd();
    __m256d a30 = _mm256_setzero_pd(), a31 = _mm256_setzero_pd();
    for (int64_t j = 0; j < n; ++j) {
      const __m256 bv = _mm256_loadu_ps(panel + j * kTr);
      const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(bv));
      const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(bv, 1));
      DotRow(a[j], lo, hi, a00, a01);
      if constexpr (R > 1) DotRow(a[lda + j], lo, hi, a10, a11);
      if constexpr (R > 2) DotRow(a[2 * lda + j], lo, hi, a20, a21);
      if constexpr (R > 3) DotRow(a[3 * lda + j], lo, hi, a30, a31);
    }
    _mm256_storeu_pd(out + 0, a00);
    _mm256_storeu_pd(out + 4, a01);
    if constexpr (R > 1) {
      _mm256_storeu_pd(out + 8, a10);
      _mm256_storeu_pd(out + 12, a11);
    }
    if constexpr (R > 2) {
      _mm256_storeu_pd(out + 16, a20);
      _mm256_storeu_pd(out + 20, a21);
    }
    if constexpr (R > 3) {
      _mm256_storeu_pd(out + 24, a30);
      _mm256_storeu_pd(out + 28, a31);
    }
  }

  // Up to 4 rows of B against the 8 transposed rows of A: per j, two
  // loads of A's column feed every output's chains.
  template <int Q>
  static void DotCols(const double* at, const float* b, int64_t ldb,
                      int64_t n, double* out) {
    static_assert(kSmallRows == 8, "two __m256d per transposed column");
    __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
    __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
    __m256d a20 = _mm256_setzero_pd(), a21 = _mm256_setzero_pd();
    __m256d a30 = _mm256_setzero_pd(), a31 = _mm256_setzero_pd();
    for (int64_t j = 0; j < n; ++j) {
      const __m256d lo = _mm256_loadu_pd(at + j * kSmallRows);
      const __m256d hi = _mm256_loadu_pd(at + j * kSmallRows + 4);
      DotRow(b[j], lo, hi, a00, a01);
      if constexpr (Q > 1) DotRow(b[ldb + j], lo, hi, a10, a11);
      if constexpr (Q > 2) DotRow(b[2 * ldb + j], lo, hi, a20, a21);
      if constexpr (Q > 3) DotRow(b[3 * ldb + j], lo, hi, a30, a31);
    }
    _mm256_storeu_pd(out + 0, a00);
    _mm256_storeu_pd(out + 4, a01);
    if constexpr (Q > 1) {
      _mm256_storeu_pd(out + 8, a10);
      _mm256_storeu_pd(out + 12, a11);
    }
    if constexpr (Q > 2) {
      _mm256_storeu_pd(out + 16, a20);
      _mm256_storeu_pd(out + 20, a21);
    }
    if constexpr (Q > 3) {
      _mm256_storeu_pd(out + 24, a30);
      _mm256_storeu_pd(out + 28, a31);
    }
  }

  [[gnu::always_inline]] static void DotRow(float a, __m256d lo, __m256d hi,
                                            __m256d& acc_lo,
                                            __m256d& acc_hi) {
    const __m256d av = _mm256_set1_pd(static_cast<double>(a));
    acc_lo = _mm256_fmadd_pd(av, lo, acc_lo);
    acc_hi = _mm256_fmadd_pd(av, hi, acc_hi);
  }

  // The in-place tile: up to 4 rows x 16 (V = 2) or 8 (V = 1) columns,
  // in named accumulators (an accumulator array would live on the
  // stack at -O2). The rows and vectors a shape does not use are
  // compiled away.
  template <int R, int V>
  static void InPlaceTile(const float* a, int64_t rs, int64_t ss,
                          const float* b, int64_t ld, int64_t steps,
                          float* c) {
    __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
    __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
    __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
    __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
    LoadRow<V>(c, c00, c01);
    if constexpr (R > 1) LoadRow<V>(c + ld, c10, c11);
    if constexpr (R > 2) LoadRow<V>(c + 2 * ld, c20, c21);
    if constexpr (R > 3) LoadRow<V>(c + 3 * ld, c30, c31);
    for (int64_t s = 0; s < steps; ++s) {
      const float* bs = b + s * ld;
      const float* as = a + s * ss;
      const __m256 b0 = _mm256_loadu_ps(bs);
      const __m256 b1 = V == 2 ? _mm256_loadu_ps(bs + 8) : b0;
      FmaRow<V>(as, b0, b1, c00, c01);
      if constexpr (R > 1) FmaRow<V>(as + rs, b0, b1, c10, c11);
      if constexpr (R > 2) FmaRow<V>(as + 2 * rs, b0, b1, c20, c21);
      if constexpr (R > 3) FmaRow<V>(as + 3 * rs, b0, b1, c30, c31);
    }
    StoreRow<V>(c, c00, c01);
    if constexpr (R > 1) StoreRow<V>(c + ld, c10, c11);
    if constexpr (R > 2) StoreRow<V>(c + 2 * ld, c20, c21);
    if constexpr (R > 3) StoreRow<V>(c + 3 * ld, c30, c31);
  }

  template <int V>
  [[gnu::always_inline]] static void LoadRow(const float* c, __m256& lo,
                                             __m256& hi) {
    lo = _mm256_loadu_ps(c);
    if constexpr (V == 2) hi = _mm256_loadu_ps(c + 8);
  }

  template <int V>
  [[gnu::always_inline]] static void StoreRow(float* c, __m256 lo,
                                              __m256 hi) {
    _mm256_storeu_ps(c, lo);
    if constexpr (V == 2) _mm256_storeu_ps(c + 8, hi);
  }

  template <int V>
  [[gnu::always_inline]] static void FmaRow(const float* a, __m256 b0,
                                            __m256 b1, __m256& lo,
                                            __m256& hi) {
    const __m256 av = _mm256_broadcast_ss(a);
    lo = _mm256_fmadd_ps(av, b0, lo);
    if constexpr (V == 2) hi = _mm256_fmadd_ps(av, b1, hi);
  }

  static void ConvTile(const float* wp, const float* base, const int64_t* off,
                       int64_t kc, float* c, int64_t ldc) {
    __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
    __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
    __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
    __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
    for (int64_t p = 0; p < kc; ++p) {
      const float* bv = base + off[p];
      const __m256 b0 = _mm256_loadu_ps(bv);
      const __m256 b1 = _mm256_loadu_ps(bv + 8);
      const float* av = wp + p * kConvRows;
      __m256 a = _mm256_broadcast_ss(av + 0);
      c00 = _mm256_fmadd_ps(a, b0, c00);
      c01 = _mm256_fmadd_ps(a, b1, c01);
      a = _mm256_broadcast_ss(av + 1);
      c10 = _mm256_fmadd_ps(a, b0, c10);
      c11 = _mm256_fmadd_ps(a, b1, c11);
      a = _mm256_broadcast_ss(av + 2);
      c20 = _mm256_fmadd_ps(a, b0, c20);
      c21 = _mm256_fmadd_ps(a, b1, c21);
      a = _mm256_broadcast_ss(av + 3);
      c30 = _mm256_fmadd_ps(a, b0, c30);
      c31 = _mm256_fmadd_ps(a, b1, c31);
    }
    _mm256_storeu_ps(c + 0 * ldc, c00);
    _mm256_storeu_ps(c + 0 * ldc + 8, c01);
    _mm256_storeu_ps(c + 1 * ldc, c10);
    _mm256_storeu_ps(c + 1 * ldc + 8, c11);
    _mm256_storeu_ps(c + 2 * ldc, c20);
    _mm256_storeu_ps(c + 2 * ldc + 8, c21);
    _mm256_storeu_ps(c + 3 * ldc, c30);
    _mm256_storeu_ps(c + 3 * ldc + 8, c31);
  }

  // Four input channels x 16 columns: the gradient loads of one output
  // channel feed all four channels' chains.
  static void ConvDxAccumulate(const float* w, int64_t cout, const float* g,
                               int64_t ldg, int64_t n, float* acc,
                               int64_t ldacc) {
    for (int64_t j0 = 0; j0 < n; j0 += kNr) {
      __m256 t00 = _mm256_setzero_ps(), t01 = _mm256_setzero_ps();
      __m256 t10 = _mm256_setzero_ps(), t11 = _mm256_setzero_ps();
      __m256 t20 = _mm256_setzero_ps(), t21 = _mm256_setzero_ps();
      __m256 t30 = _mm256_setzero_ps(), t31 = _mm256_setzero_ps();
      for (int64_t oc = 0; oc < cout; ++oc) {
        const float* gv = g + oc * ldg + j0;
        const __m256 g0 = _mm256_loadu_ps(gv);
        const __m256 g1 = _mm256_loadu_ps(gv + 8);
        const float* wv = w + oc * kConvRows;
        __m256 a = _mm256_broadcast_ss(wv + 0);
        t00 = _mm256_fmadd_ps(a, g0, t00);
        t01 = _mm256_fmadd_ps(a, g1, t01);
        a = _mm256_broadcast_ss(wv + 1);
        t10 = _mm256_fmadd_ps(a, g0, t10);
        t11 = _mm256_fmadd_ps(a, g1, t11);
        a = _mm256_broadcast_ss(wv + 2);
        t20 = _mm256_fmadd_ps(a, g0, t20);
        t21 = _mm256_fmadd_ps(a, g1, t21);
        a = _mm256_broadcast_ss(wv + 3);
        t30 = _mm256_fmadd_ps(a, g0, t30);
        t31 = _mm256_fmadd_ps(a, g1, t31);
      }
      const __m256 t[kConvRows][2] = {
          {t00, t01}, {t10, t11}, {t20, t21}, {t30, t31}};
      for (int64_t r = 0; r < kConvRows; ++r) {
        float* av = acc + r * ldacc + j0;
        _mm256_storeu_ps(av, _mm256_add_ps(_mm256_loadu_ps(av), t[r][0]));
        _mm256_storeu_ps(av + 8,
                         _mm256_add_ps(_mm256_loadu_ps(av + 8), t[r][1]));
      }
    }
  }

  // dw chains: one double lane per (patch row, channel), fused steps
  // (the float*float products are exact in double, so fused and mul+add
  // chains are the same bits).
  static void ConvDwChains8x4(const double* x, const int64_t* off,
                              int64_t ldx, const double* gd, int64_t ldg,
                              int64_t ho, int64_t wo, double* out) {
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    __m256d a4 = _mm256_setzero_pd(), a5 = _mm256_setzero_pd();
    __m256d a6 = _mm256_setzero_pd(), a7 = _mm256_setzero_pd();
    const double *x0 = x + off[0], *x1 = x + off[1], *x2 = x + off[2],
                 *x3 = x + off[3], *x4 = x + off[4], *x5 = x + off[5],
                 *x6 = x + off[6], *x7 = x + off[7];
    for (int64_t oy = 0; oy < ho; ++oy) {
      const double* grow = gd + oy * wo * ldg;
      const int64_t xr = oy * ldx;
      for (int64_t ox = 0; ox < wo; ++ox) {
        const __m256d gv = _mm256_loadu_pd(grow + ox * ldg);
        const int64_t xi = xr + ox;
        a0 = _mm256_fmadd_pd(_mm256_broadcast_sd(x0 + xi), gv, a0);
        a1 = _mm256_fmadd_pd(_mm256_broadcast_sd(x1 + xi), gv, a1);
        a2 = _mm256_fmadd_pd(_mm256_broadcast_sd(x2 + xi), gv, a2);
        a3 = _mm256_fmadd_pd(_mm256_broadcast_sd(x3 + xi), gv, a3);
        a4 = _mm256_fmadd_pd(_mm256_broadcast_sd(x4 + xi), gv, a4);
        a5 = _mm256_fmadd_pd(_mm256_broadcast_sd(x5 + xi), gv, a5);
        a6 = _mm256_fmadd_pd(_mm256_broadcast_sd(x6 + xi), gv, a6);
        a7 = _mm256_fmadd_pd(_mm256_broadcast_sd(x7 + xi), gv, a7);
      }
    }
    _mm256_storeu_pd(out + 0, a0);
    _mm256_storeu_pd(out + 4, a1);
    _mm256_storeu_pd(out + 8, a2);
    _mm256_storeu_pd(out + 12, a3);
    _mm256_storeu_pd(out + 16, a4);
    _mm256_storeu_pd(out + 20, a5);
    _mm256_storeu_pd(out + 24, a6);
    _mm256_storeu_pd(out + 28, a7);
  }

  static void ConvDwChains4x8(const double* x, const int64_t* off,
                              int64_t ldx, const double* gd, int64_t ldg,
                              int64_t ho, int64_t wo, double* out) {
    __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
    __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
    __m256d a20 = _mm256_setzero_pd(), a21 = _mm256_setzero_pd();
    __m256d a30 = _mm256_setzero_pd(), a31 = _mm256_setzero_pd();
    const double *x0 = x + off[0], *x1 = x + off[1], *x2 = x + off[2],
                 *x3 = x + off[3];
    for (int64_t oy = 0; oy < ho; ++oy) {
      const double* grow = gd + oy * wo * ldg;
      const int64_t xr = oy * ldx;
      for (int64_t ox = 0; ox < wo; ++ox) {
        const __m256d g0 = _mm256_loadu_pd(grow + ox * ldg);
        const __m256d g1 = _mm256_loadu_pd(grow + ox * ldg + 4);
        const int64_t xi = xr + ox;
        __m256d xv = _mm256_broadcast_sd(x0 + xi);
        a00 = _mm256_fmadd_pd(xv, g0, a00);
        a01 = _mm256_fmadd_pd(xv, g1, a01);
        xv = _mm256_broadcast_sd(x1 + xi);
        a10 = _mm256_fmadd_pd(xv, g0, a10);
        a11 = _mm256_fmadd_pd(xv, g1, a11);
        xv = _mm256_broadcast_sd(x2 + xi);
        a20 = _mm256_fmadd_pd(xv, g0, a20);
        a21 = _mm256_fmadd_pd(xv, g1, a21);
        xv = _mm256_broadcast_sd(x3 + xi);
        a30 = _mm256_fmadd_pd(xv, g0, a30);
        a31 = _mm256_fmadd_pd(xv, g1, a31);
      }
    }
    _mm256_storeu_pd(out + 0, a00);
    _mm256_storeu_pd(out + 4, a01);
    _mm256_storeu_pd(out + 8, a10);
    _mm256_storeu_pd(out + 12, a11);
    _mm256_storeu_pd(out + 16, a20);
    _mm256_storeu_pd(out + 20, a21);
    _mm256_storeu_pd(out + 24, a30);
    _mm256_storeu_pd(out + 28, a31);
  }

  // Sparse dw: R kernel rows of K taps, one __m256d chain per tap (4
  // input channels), held in registers while the winners stream past:
  // R*K <= 15 accumulators and the broadcast value fill the 16 ymm.
  template <int K, int R>
  static void SparseDwRows(const double* x, int64_t ldx, const int32_t* pos,
                           const double* v, int64_t n, double* out) {
    __m256d acc[R * K];
#pragma GCC unroll 16
    for (int t = 0; t < R * K; ++t) acc[t] = _mm256_setzero_pd();
    for (int64_t e = 0; e < n; ++e) {
      const __m256d ve = _mm256_broadcast_sd(v + e);
      // Stepping a row pointer (rather than indexing r*ldx) is what
      // lets GCC fold each kx into the load's displacement.
      const double* xr = x + pos[e];
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r, xr += ldx) {
#pragma GCC unroll 8
        for (int kx = 0; kx < K; ++kx) {
          acc[r * K + kx] = _mm256_fmadd_pd(
              ve, _mm256_loadu_pd(xr + kx * kConvRows), acc[r * K + kx]);
        }
      }
    }
#pragma GCC unroll 16
    for (int t = 0; t < R * K; ++t) _mm256_storeu_pd(out + 4 * t, acc[t]);
  }

  static void ConvSparseDw(const double* x, int64_t ldx, int64_t k,
                           int64_t rows, const int32_t* pos, const double* v,
                           int64_t n, double* out) {
    // The CNN's 5x5 kernels take passes of 3 and 2 rows.
    if (k == 5) {
      WithCount(rows, [&](auto r) {
        if constexpr (r() <= 3) SparseDwRows<5, r()>(x, ldx, pos, v, n, out);
      });
      return;
    }
    // Any other kernel, which no model in the repository has: one tap's
    // chain at a time.
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

  // Sparse dx of one position: per ky, the lanes in runs of up to 4
  // vectors (a 5x5 kernel's 20 lanes and 4 zero-weight ones are 3), one
  // fused chain per lane over the position's live channels.
  template <int V>
  static void SparseDxRun(const float* w, const int32_t* wof, const float* v,
                          int64_t n, float* dx) {
    __m256 t[V];
#pragma GCC unroll 4
    for (int r = 0; r < V; ++r) t[r] = _mm256_setzero_ps();
    for (int64_t e = 0; e < n; ++e) {
      const __m256 ve = _mm256_broadcast_ss(v + e);
      const float* we = w + wof[e];
#pragma GCC unroll 4
      for (int r = 0; r < V; ++r) {
        t[r] = _mm256_fmadd_ps(_mm256_loadu_ps(we + 8 * r), ve, t[r]);
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < V; ++r) {
      _mm256_storeu_ps(dx + 8 * r,
                       _mm256_add_ps(_mm256_loadu_ps(dx + 8 * r), t[r]));
    }
  }

  static void ConvSparseDx(const float* w, const int32_t* wof, const float* v,
                           int64_t n, int64_t k, int64_t lanes, float* dx,
                           int64_t ld) {
    for (int64_t j0 = 0; j0 < lanes; j0 += 32) {
      WithCount(std::min<int64_t>(32, lanes - j0) / 8, [&](auto runs) {
        for (int64_t ky = 0; ky < k; ++ky) {
          SparseDxRun<runs()>(w + ky * lanes + j0, wof, v, n,
                              dx + ky * ld + j0);
        }
      });
    }
  }

  // The lanes of ReluPoolRange. Each step loads 16 grid columns of a
  // row pair and splits them into the even and the odd columns: window
  // positions 0..3 of 8 pooled outputs. A lane adds the bias and clamps
  // with max_ps(v, 0) (+0 for NaN and -0, as ReluRange); a later
  // position replaces the running max only where GT_OQ says it is
  // strictly greater, the scalar rule. A row's last step may cover
  // fewer than 8 outputs: its extra lanes read the next grid columns
  // and write past the row's outputs, which later steps overwrite, so
  // they run as full vectors. Only where they would pass the end of the
  // grid region or of the outputs do they run masked.
  static void ReluPool(const float* grid, int64_t ld, int64_t plane,
                       const float* bias, int64_t channels, int64_t rows,
                       int64_t cols, float* out, uint8_t* window) {
    const int64_t po = cols / 2;
    const int64_t grid_end = (channels - 1) * plane + (rows - 1) * ld + cols;
    const int64_t out_end = channels * rows / 2 * po;
    const __m256 zero = _mm256_setzero_ps();
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    // Lane masks for a masked step, which covers `left` pooled outputs
    // (2*left grid columns).
    const int64_t left = po - (po - 1) / 8 * 8;
    const __m256i cols_lo = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(2 * left)), lane);
    const __m256i cols_hi = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(2 * left - 8)), lane);
    const __m256i outs =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(left)), lane);
    for (int64_t c = 0; c < channels; ++c) {
      const __m256 bv = _mm256_set1_ps(bias[c]);
      // shuffle_ps takes columns {0 2 8 10 | 4 6 12 14} of the 16 (and
      // the odd ones {1 3 9 11 | 5 7 13 15}), so the lanes hold pooled
      // outputs {0 1 4 5 | 2 3 6 7}. Every window position is in that
      // order; one permute per result restores it.
      auto split = [&](const float* row, bool masked, __m256* even,
                       __m256* odd) {
        const __m256 a = masked ? _mm256_maskload_ps(row, cols_lo)
                                : _mm256_loadu_ps(row);
        const __m256 b = masked ? _mm256_maskload_ps(row + 8, cols_hi)
                                : _mm256_loadu_ps(row + 8);
        *even = _mm256_max_ps(
            _mm256_add_ps(_mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0)),
                          bv),
            zero);
        *odd = _mm256_max_ps(
            _mm256_add_ps(_mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1)),
                          bv),
            zero);
      };
      auto restore = [](__m256 v) {
        return _mm256_castpd_ps(_mm256_permute4x64_pd(
            _mm256_castps_pd(v), _MM_SHUFFLE(3, 1, 2, 0)));
      };
      for (int64_t py = 0; py < rows / 2; ++py) {
        const int64_t top = c * plane + 2 * py * ld;
        const int64_t at = (c * rows / 2 + py) * po;
        for (int64_t px = 0; px < po; px += 8) {
          const bool masked =
              px + 8 > po && (top + ld + 2 * px + 16 > grid_end ||
                              at + px + 8 > out_end);
          __m256 v[4];
          split(grid + top + 2 * px, masked, &v[0], &v[1]);
          split(grid + top + ld + 2 * px, masked, &v[2], &v[3]);
          __m256 best = v[0];
          __m256 best_k = zero;  // window indices as int32 lanes
          for (int k = 1; k < 4; ++k) {
            const __m256 take = _mm256_cmp_ps(v[k], best, _CMP_GT_OQ);
            best = _mm256_blendv_ps(best, v[k], take);
            best_k = _mm256_blendv_ps(
                best_k, _mm256_castsi256_ps(_mm256_set1_epi32(k)), take);
          }
          best = restore(best);
          // int32 lanes 0..3 -> bytes: two saturating packs.
          const __m256i k32 = _mm256_castps_si256(restore(best_k));
          const __m128i k16 = _mm_packs_epi32(
              _mm256_castsi256_si128(k32), _mm256_extracti128_si256(k32, 1));
          const uint64_t k8 = static_cast<uint64_t>(
              _mm_cvtsi128_si64(_mm_packus_epi16(k16, k16)));
          if (masked) {
            _mm256_maskstore_ps(out + at + px, outs, best);
            std::memcpy(window + at + px, &k8, static_cast<size_t>(left));
          } else {
            _mm256_storeu_ps(out + at + px, best);
            std::memcpy(window + at + px, &k8, 8);
          }
        }
      }
    }
  }

  // max_ps(x, 0) returns its second operand unless x > 0, so NaN and -0
  // give +0 like ReluRange. The tails run ReluRange itself.
  static void Relu(const float* x, int64_t n, float* y) {
    const __m256 zero = _mm256_setzero_ps();
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
    }
    ReluRange(x + i, n - i, y + i);
  }

  // NLE_UQ is !(x <= 0), true for NaN: the ReluMaskRange predicate.
  static void ReluMask(const float* g, const float* x, int64_t n,
                       float* out) {
    const __m256 zero = _mm256_setzero_ps();
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 keep =
          _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_NLE_UQ);
      _mm256_storeu_ps(out + i, _mm256_and_ps(keep, _mm256_loadu_ps(g + i)));
    }
    ReluMaskRange(g + i, x + i, n - i, out + i);
  }

  // The element-wise kernels: each lane runs its *Range loop's
  // operations in the same order; the tails run the loops themselves.
  static void Add(float* x, const float* y, int64_t n) {
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(
          x + i, _mm256_add_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
    }
    AddRange(x + i, y + i, n - i);
  }

  static void Sub(float* x, const float* y, int64_t n) {
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(
          x + i, _mm256_sub_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
    }
    SubRange(x + i, y + i, n - i);
  }

  static void Scale(float* x, float s, int64_t n) {
    const __m256 sv = _mm256_set1_ps(s);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), sv));
    }
    ScaleRange(x + i, s, n - i);
  }

  static void Axpy(float* x, float s, const float* y, int64_t n) {
    const __m256 sv = _mm256_set1_ps(s);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 sy = _mm256_mul_ps(sv, _mm256_loadu_ps(y + i));
      _mm256_storeu_ps(x + i, _mm256_add_ps(_mm256_loadu_ps(x + i), sy));
    }
    AxpyRange(x + i, s, y + i, n - i);
  }

  static void Sgd(float* w, const float* g, float* v, int64_t n,
                  const SgdStep& st) {
    const __m256 lr = _mm256_set1_ps(st.lr);
    const __m256 wd = _mm256_set1_ps(st.weight_decay);
    const __m256 mom = _mm256_set1_ps(st.momentum);
    int64_t i = 0;
    if (v == nullptr) {
      for (; i + 8 <= n; i += 8) {
        const __m256 wv = _mm256_loadu_ps(w + i);
        const __m256 d = _mm256_add_ps(_mm256_loadu_ps(g + i),
                                       _mm256_mul_ps(wd, wv));
        _mm256_storeu_ps(w + i, _mm256_sub_ps(wv, _mm256_mul_ps(lr, d)));
      }
      SgdRange(w + i, g + i, nullptr, n - i, st);
      return;
    }
    for (; i + 8 <= n; i += 8) {
      const __m256 wv = _mm256_loadu_ps(w + i);
      const __m256 vv = _mm256_add_ps(
          _mm256_add_ps(_mm256_mul_ps(mom, _mm256_loadu_ps(v + i)),
                        _mm256_loadu_ps(g + i)),
          _mm256_mul_ps(wd, wv));
      _mm256_storeu_ps(v + i, vv);
      _mm256_storeu_ps(w + i, _mm256_sub_ps(wv, _mm256_mul_ps(lr, vv)));
    }
    SgdRange(w + i, g + i, v + i, n - i, st);
  }

  static void RmsProp(float* w, const float* g, float* ms, int64_t n,
                      const RmsPropStep& st) {
    const __m256 lr = _mm256_set1_ps(st.lr);
    const __m256 alpha = _mm256_set1_ps(st.alpha);
    const __m256 decay = _mm256_set1_ps(1.0f - st.alpha);
    const __m256 eps = _mm256_set1_ps(st.eps);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 gv = _mm256_loadu_ps(g + i);
      const __m256 msv =
          _mm256_add_ps(_mm256_mul_ps(alpha, _mm256_loadu_ps(ms + i)),
                        _mm256_mul_ps(_mm256_mul_ps(decay, gv), gv));
      _mm256_storeu_ps(ms + i, msv);
      const __m256 step = _mm256_div_ps(
          _mm256_mul_ps(lr, gv), _mm256_add_ps(_mm256_sqrt_ps(msv), eps));
      _mm256_storeu_ps(w + i, _mm256_sub_ps(_mm256_loadu_ps(w + i), step));
    }
    RmsPropRange(w + i, g + i, ms + i, n - i, st);
  }
};

}  // namespace

const BlockedKernels* Avx2KernelsOrNull() {
  static const BlockedKernels table = {
      &GemmInPlaceT<Avx2Traits>,
      &GemmTransBBlockedT<Avx2Traits>,
      &GemmTransBSmallT<Avx2Traits>,
      &ConvForwardT<Avx2Traits>,
      &ConvBackwardT<Avx2Traits>,
      &ConvBlockBackwardT<Avx2Traits>,
      &Avx2Traits::ReluPool,
      &Avx2Traits::Relu,
      &Avx2Traits::ReluMask,
      &Avx2Traits::Add,
      &Avx2Traits::Sub,
      &Avx2Traits::Scale,
      &Avx2Traits::Axpy,
      &Avx2Traits::Sgd,
      &Avx2Traits::RmsProp,
  };
  return &table;
}

}  // namespace internal
}  // namespace rfed

#else  // !RFED_HAVE_AVX2

#include "tensor/kernels_dispatch.h"

namespace rfed {
namespace internal {

const BlockedKernels* Avx2KernelsOrNull() { return nullptr; }

}  // namespace internal
}  // namespace rfed

#endif  // RFED_HAVE_AVX2
