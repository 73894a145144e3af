// AVX-512 blocked-kernel table: the CNN's fused conv block at 512 bits.
// This is the only TU compiled with -mavx512f/bw/vl/dq (CMake sets
// RFED_HAVE_AVX512 when the compiler accepts them and the AVX2 table is
// built); kernels.cc only calls into this table after
// __builtin_cpu_supports confirms all four at runtime.
//
// Five entries are its own (conv_forward, conv_block_backward,
// live_winners, conv_lanes, conv_relu_pool); every other entry is the
// AVX2 table's function pointer, so no GEMM or element-wise code is
// compiled twice:
//
// Conv forward: 16 images in the lanes of each __m512, a tile of 4
// output channels x 3 positions of one row in 12 named accumulators,
// each lane the same fused chain in ascending p as every other table.
// A batch's last group of at most 8 images runs on the 8-lane grid
// (Avx512Narrow), so no lanes are wasted on B = 24 (16 + 8) or B = 150
// (9 x 16 + 6); there one __m512 holds two positions, and the same 12
// accumulators cover 4 channels x 6 positions. A 16x16 transpose
// interleaves a group; partial groups load only their live images'
// rows.
//
// Conv epilogue (bias, ReLU, 2x2 max-pool): one pooled output of 16
// images per step, compares into mask registers, the scalar rule; runs
// of up to 16 of a channel's pooled outputs are transposed to
// image-major and stored with one masked store per image.
//
// Winner lists of the sparse backward: per 8 windows of a pooled row,
// masked loads of y, the window bytes and the gradient (nothing past
// the row is read), then vpcompressd packs the live winners' offsets
// and values in ascending px. These run at 256 bits: in a same-process
// A/B, 512-bit lists made conv2's block backward (3 windows a row)
// about 10% slower at B = 150, while 256-bit ones made it faster.
//
// The rest of the block backward (Avx512Traits): a 5x5 kernel's dw in
// one pass over each winner list (15 accumulators: per kernel row two
// __m512d and one __m256d), dx over all 5 kernel rows per sweep of a
// position's live channels (one __m512 and one __m256 per row), and the
// interleaved copy of x to doubles 4 positions per step, shared with
// the AVX2 table (kernels_avx2_shared.h).

#ifdef RFED_HAVE_AVX512

// GCC 12's 512-bit intrinsics start their results from a self-assigned
// _mm512_undefined_* value, which -Wmaybe-uninitialized reports at
// every inlined use (a false positive that GCC 13 no longer emits).
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#include <immintrin.h>

#include "tensor/kernels_avx2_shared.h"
#include "tensor/kernels_blocked.h"

namespace rfed {
namespace internal {
namespace {

// The vector operations of the conv forward at L float lanes: one
// __m512 at 16, one __m256 at 8 (its AVX-512VL forms compare into mask
// registers too).
template <int L>
struct Vec;

template <>
struct Vec<16> {
  using V = __m512;
  using M = __mmask16;
  static V Zero() { return _mm512_setzero_ps(); }
  static V Load(const float* p) { return _mm512_load_ps(p); }
  static V LoadU(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, V v) { _mm512_store_ps(p, v); }
  static V Set1(float a) { return _mm512_set1_ps(a); }
  static V Fma(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  static V Add(V a, V b) { return _mm512_add_ps(a, b); }
  static V Max(V a, V b) { return _mm512_max_ps(a, b); }
  static M Gt(V a, V b) { return _mm512_cmp_ps_mask(a, b, _CMP_GT_OQ); }
  static V Blend(M m, V a, V b) { return _mm512_mask_blend_ps(m, a, b); }
  // The int32 k in every lane, as float bits.
  static V Index(int32_t k) {
    return _mm512_castsi512_ps(_mm512_set1_epi32(k));
  }
  // The first `count` lanes of v to p: floats, or the int32 lanes held
  // in the float vector v as bytes.
  static void StoreRun(float* p, int64_t count, V v) {
    _mm512_mask_storeu_ps(p, static_cast<M>((1u << count) - 1), v);
  }
  static void StoreBytes(uint8_t* p, int64_t count, V v) {
    _mm_mask_storeu_epi8(p, static_cast<M>((1u << count) - 1),
                         _mm512_cvtepi32_epi8(_mm512_castps_si512(v)));
  }

  // r[t] = column t of the 16x16 matrix whose rows were r[0..15]: a 4x4
  // transpose inside each 128-bit block (unpack, shuffle), then a 4x4
  // transpose of the blocks (two rounds of shuffle_f32x4).
  [[gnu::always_inline]] static void Transpose(V* r) {
    V u[16];
    for (int a = 0; a < 16; a += 4) {
      const V t0 = _mm512_unpacklo_ps(r[a], r[a + 1]);
      const V t1 = _mm512_unpackhi_ps(r[a], r[a + 1]);
      const V t2 = _mm512_unpacklo_ps(r[a + 2], r[a + 3]);
      const V t3 = _mm512_unpackhi_ps(r[a + 2], r[a + 3]);
      u[a] = _mm512_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
      u[a + 1] = _mm512_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
      u[a + 2] = _mm512_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
      u[a + 3] = _mm512_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    }
    // Block k of u[4b + i] holds column 4k + i of rows 4b..4b+3.
    for (int i = 0; i < 4; ++i) {
      const V v0 = _mm512_shuffle_f32x4(u[i], u[4 + i], 0x44);
      const V v1 = _mm512_shuffle_f32x4(u[i], u[4 + i], 0xee);
      const V v2 = _mm512_shuffle_f32x4(u[8 + i], u[12 + i], 0x44);
      const V v3 = _mm512_shuffle_f32x4(u[8 + i], u[12 + i], 0xee);
      r[i] = _mm512_shuffle_f32x4(v0, v2, 0x88);
      r[4 + i] = _mm512_shuffle_f32x4(v0, v2, 0xdd);
      r[8 + i] = _mm512_shuffle_f32x4(v1, v3, 0x88);
      r[12 + i] = _mm512_shuffle_f32x4(v1, v3, 0xdd);
    }
  }
};

template <>
struct Vec<8> {
  using V = __m256;
  using M = __mmask8;
  static V Zero() { return _mm256_setzero_ps(); }
  static V Load(const float* p) { return _mm256_load_ps(p); }
  static V LoadU(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, V v) { _mm256_store_ps(p, v); }
  static V Set1(float a) { return _mm256_set1_ps(a); }
  static V Fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V Add(V a, V b) { return _mm256_add_ps(a, b); }
  static V Max(V a, V b) { return _mm256_max_ps(a, b); }
  static M Gt(V a, V b) { return _mm256_cmp_ps_mask(a, b, _CMP_GT_OQ); }
  static V Blend(M m, V a, V b) { return _mm256_mask_blend_ps(m, a, b); }
  static V Index(int32_t k) {
    return _mm256_castsi256_ps(_mm256_set1_epi32(k));
  }
  static void StoreRun(float* p, int64_t count, V v) {
    _mm256_mask_storeu_ps(p, static_cast<M>((1u << count) - 1), v);
  }
  static void StoreBytes(uint8_t* p, int64_t count, V v) {
    _mm_mask_storeu_epi8(p, static_cast<__mmask16>((1u << count) - 1),
                         _mm256_cvtepi32_epi8(_mm256_castps_si256(v)));
  }

  // The 8x8 transpose: the same 4x4 step inside each 128-bit half, then
  // the halves swapped across.
  [[gnu::always_inline]] static void Transpose(V* r) {
    V u[8];
    for (int a = 0; a < 8; a += 4) {
      const V t0 = _mm256_unpacklo_ps(r[a], r[a + 1]);
      const V t1 = _mm256_unpackhi_ps(r[a], r[a + 1]);
      const V t2 = _mm256_unpacklo_ps(r[a + 2], r[a + 3]);
      const V t3 = _mm256_unpackhi_ps(r[a + 2], r[a + 3]);
      u[a] = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
      u[a + 1] = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
      u[a + 2] = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
      u[a + 3] = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    }
    for (int i = 0; i < 4; ++i) {
      r[i] = _mm256_permute2f128_ps(u[i], u[4 + i], 0x20);
      r[4 + i] = _mm256_permute2f128_ps(u[i], u[4 + i], 0x31);
    }
  }
};

// The conv forward's Traits members at L lanes (kernels_blocked.h has
// the contracts).
template <int L>
struct Avx512Conv {
  using Ops = Vec<L>;
  using V = typename Ops::V;
  static constexpr int64_t kConvLanes = L;
  static constexpr int64_t kTileCols = kConvCols;

  // 4 output channels x Q positions of one row, one vector of L images
  // per (channel, position), in named accumulators. Each step makes Q
  // loads and 4 weight broadcasts; the positions a shape does not use
  // are compiled away. The loads are unaligned because the narrow tile
  // (Avx512Narrow) runs this one on the 8-lane grid, where a pair of
  // positions may start mid-vector. Out of line, like the AVX2 tile, so
  // that the accumulators are allocated for this loop alone.
  template <int Q>
  [[gnu::noinline]] static void ConvTile(const float* wp, const float* base,
                                         const int64_t* off, int64_t kc,
                                         float* c, int64_t ldc) {
    V c00 = Ops::Zero(), c01 = c00, c02 = c00;
    V c10 = c00, c11 = c00, c12 = c00;
    V c20 = c00, c21 = c00, c22 = c00;
    V c30 = c00, c31 = c00, c32 = c00;
    for (int64_t p = 0; p < kc; ++p) {
      const float* bv = base + off[p];
      const V b0 = Ops::LoadU(bv);
      const V b1 = Q > 1 ? Ops::LoadU(bv + L) : b0;
      const V b2 = Q > 2 ? Ops::LoadU(bv + 2 * L) : b0;
      const float* av = wp + p * kConvRows;
      FmaRow<Q>(av[0], b0, b1, b2, c00, c01, c02);
      FmaRow<Q>(av[1], b0, b1, b2, c10, c11, c12);
      FmaRow<Q>(av[2], b0, b1, b2, c20, c21, c22);
      FmaRow<Q>(av[3], b0, b1, b2, c30, c31, c32);
    }
    StoreRow<Q>(c, c00, c01, c02);
    StoreRow<Q>(c + ldc, c10, c11, c12);
    StoreRow<Q>(c + 2 * ldc, c20, c21, c22);
    StoreRow<Q>(c + 3 * ldc, c30, c31, c32);
  }

  template <int Q>
  [[gnu::always_inline]] static void FmaRow(float a, V b0, V b1, V b2, V& c0,
                                            V& c1, V& c2) {
    const V av = Ops::Set1(a);
    c0 = Ops::Fma(av, b0, c0);
    if constexpr (Q > 1) c1 = Ops::Fma(av, b1, c1);
    if constexpr (Q > 2) c2 = Ops::Fma(av, b2, c2);
  }

  template <int Q>
  [[gnu::always_inline]] static void StoreRow(float* c, V c0, V c1, V c2) {
    Ops::Store(c, c0);
    if constexpr (Q > 1) Ops::Store(c + L, c1);
    if constexpr (Q > 2) Ops::Store(c + 2 * L, c2);
  }

  // InterleaveLanesRange: L elements of the group's images per step, one
  // LxL transpose turning image rows into lane vectors. The rows of the
  // lanes past `live` are zero vectors, so a partial group reads only
  // its own images. When n is not a multiple of L the last step overlaps
  // the one before and rewrites the same values.
  static void InterleaveLanes(const float* x, int64_t n, int64_t live,
                              const int64_t* pos, float* xl) {
    if (n < L) {
      InterleaveLanesRange<L>(x, n, live, pos, xl);
      return;
    }
    for (int64_t j0 = 0; j0 < n; j0 += L) {
      const int64_t j = std::min(j0, n - L);
      V r[L];
      for (int64_t l = 0; l < L; ++l) {
        r[l] = l < live ? Ops::LoadU(x + l * n + j) : Ops::Zero();
      }
      Ops::Transpose(r);
      for (int64_t t = 0; t < L; ++t) Ops::Store(xl + pos[j + t] * L, r[t]);
    }
  }

  // ReluPoolLanesRange with one pooled output of L images per step, its
  // four window sums four aligned vectors. A lane adds the bias and
  // clamps with max(v, 0) (+0 for NaN and -0, as ReluRange); a later
  // position replaces the running max only where GT_OQ says it is
  // strictly greater, the scalar rule. A channel's pooled outputs are
  // contiguous in each image, so runs of up to L consecutive outputs
  // are transposed from output-major to image-major, and each live
  // image gets its run with one masked store of values and one of
  // window bytes.
  static void ReluPool(const float* sums, const float* bias,
                       int64_t channels, int64_t rows, int64_t cols,
                       int64_t live, int64_t stride, float* out,
                       uint8_t* window) {
    const int64_t pw = cols / 2;
    const int64_t pooled = rows / 2 * pw;  // per channel and image
    const V zero = Ops::Zero();
    for (int64_t c = 0; c < channels; ++c) {
      const V bv = Ops::Set1(bias[c]);
      auto clamp = [&](const float* v) {
        return Ops::Max(Ops::Add(Ops::Load(v), bv), zero);
      };
      const float* plane = sums + c * rows * cols * L;
      for (int64_t p0 = 0; p0 < pooled; p0 += L) {
        const int64_t run = std::min<int64_t>(L, pooled - p0);
        V best[L];
        V best_k[L];  // window indices as int32 lanes
        for (int64_t q = 0; q < L; ++q) {
          if (q >= run) {
            best[q] = best_k[q] = zero;
            continue;
          }
          const int64_t py = (p0 + q) / pw, px = (p0 + q) % pw;
          const float* top = plane + (2 * py * cols + 2 * px) * L;
          const float* bottom = top + cols * L;
          const V v[4] = {clamp(top), clamp(top + L), clamp(bottom),
                          clamp(bottom + L)};
          V b = v[0];
          V k_of = zero;
          for (int k = 1; k < 4; ++k) {
            const auto take = Ops::Gt(v[k], b);
            b = Ops::Blend(take, b, v[k]);
            k_of = Ops::Blend(take, k_of, Ops::Index(k));
          }
          best[q] = b;
          best_k[q] = k_of;
        }
        Ops::Transpose(best);
        Ops::Transpose(best_k);
        const int64_t at = c * pooled + p0;
        for (int64_t l = 0; l < live; ++l) {
          Ops::StoreRun(out + l * stride + at, run, best[l]);
          Ops::StoreBytes(window + l * stride + at, run, best_k[l]);
        }
      }
    }
  }
};

// The narrow group's forward members: Avx512Conv<8>'s, but for the
// tile. On the 8-lane grid position q + 1 directly follows position q,
// so one __m512 holds two positions of the 8 images, and the 16-lane
// tile handed Q/2 vectors is 4 channels x Q positions here: 12 __m512
// accumulators, the same chain per lane. Q is even because Wo is
// (ConvGroupT checks), so c stays aligned to 16 floats.
struct Avx512Narrow : Avx512Conv<kNarrowLanes> {
  static constexpr int64_t kTileCols = 2 * kConvCols;

  template <int Q>
  static void ConvTile(const float* wp, const float* base, const int64_t* off,
                       int64_t kc, float* c, int64_t ldc) {
    static_assert(Q % 2 == 0, "positions come in pairs");
    Avx512Conv<16>::ConvTile<Q / 2>(wp, base, off, kc, c, ldc);
  }
};

struct Avx512Traits : Avx512Conv<16> {
  using Narrow = Avx512Narrow;

  // The sparse backward (ConvBlockBackwardT): a 5x5 kernel's 25 taps in
  // one dw pass, and dx lanes in multiples of 8 (24 per kernel row).
  static constexpr int64_t kDwChains = 25;
  static constexpr int64_t kDxLanes = 8;

  static void CopyIntoInterleaved(const float* src, int64_t live, int64_t h,
                                  int64_t w, int64_t pad, int64_t wp,
                                  double* xd) {
    CopyIntoInterleaved256(src, live, h, w, pad, wp, xd);
  }

  // Sparse dw of a 5x5 kernel in one pass over the winners: per kernel
  // row, taps 0-3 x 4 channels in two __m512d and tap 4 in one __m256d,
  // 15 accumulators held while the winners stream past. Each lane is
  // the scalar loop's double chain (the products are exact, so fused
  // and mul+add steps are the same bits). Other kernels run one tap's
  // chain at a time.
  static void ConvSparseDw(const double* x, int64_t ldx, int64_t k,
                           int64_t rows, const int32_t* pos, const double* v,
                           int64_t n, double* out) {
    constexpr int kK = 5;
    if (k != kK || rows != kK) {
      SparseDwTaps256(x, ldx, k, rows, pos, v, n, out);
      return;
    }
    __m512d lo[kK], mid[kK];
    __m256d hi[kK];
#pragma GCC unroll 5
    for (int r = 0; r < kK; ++r) {
      lo[r] = mid[r] = _mm512_setzero_pd();
      hi[r] = _mm256_setzero_pd();
    }
    for (int64_t e = 0; e < n; ++e) {
      const __m512d ve = _mm512_set1_pd(v[e]);
      const __m256d ve4 = _mm512_castpd512_pd256(ve);
      // A stepped row pointer lets GCC fold the offsets into the loads.
      const double* xr = x + pos[e];
#pragma GCC unroll 5
      for (int r = 0; r < kK; ++r, xr += ldx) {
        lo[r] = _mm512_fmadd_pd(ve, _mm512_loadu_pd(xr), lo[r]);
        mid[r] = _mm512_fmadd_pd(ve, _mm512_loadu_pd(xr + 8), mid[r]);
        hi[r] = _mm256_fmadd_pd(ve4, _mm256_loadu_pd(xr + 16), hi[r]);
      }
    }
#pragma GCC unroll 5
    for (int r = 0; r < kK; ++r) {
      double* o = out + r * kK * kConvRows;
      _mm512_storeu_pd(o, lo[r]);
      _mm512_storeu_pd(o + 8, mid[r]);
      _mm256_storeu_pd(o + 16, hi[r]);
    }
  }

  // Sparse dx of one position over K kernel rows at once, each row's
  // lanes in Z __m512 and Y __m256 (Z, Y <= 1), so the position's live
  // channels are swept once for all K rows. Each lane is a fused chain
  // from +0 over e ascending, then added to dx.
  template <int K, int Z, int Y>
  static void SparseDxRows(const float* w, const int32_t* wof, const float* v,
                           int64_t n, int64_t lanes, float* dx, int64_t ld) {
    static_assert(Z <= 1 && Y <= 1, "at most 24 lanes per row");
    __m512 tz[K];
    __m256 ty[K];
#pragma GCC unroll 5
    for (int r = 0; r < K; ++r) {
      tz[r] = _mm512_setzero_ps();
      ty[r] = _mm256_setzero_ps();
    }
    for (int64_t e = 0; e < n; ++e) {
      const __m512 ve = _mm512_set1_ps(v[e]);
      const float* we = w + wof[e];
#pragma GCC unroll 5
      for (int r = 0; r < K; ++r, we += lanes) {
        if constexpr (Z == 1) {
          tz[r] = _mm512_fmadd_ps(_mm512_loadu_ps(we), ve, tz[r]);
        }
        if constexpr (Y == 1) {
          ty[r] = _mm256_fmadd_ps(_mm256_loadu_ps(we + 16 * Z),
                                  _mm512_castps512_ps256(ve), ty[r]);
        }
      }
    }
#pragma GCC unroll 5
    for (int r = 0; r < K; ++r) {
      float* d = dx + r * ld;
      if constexpr (Z == 1) {
        _mm512_storeu_ps(d, _mm512_add_ps(_mm512_loadu_ps(d), tz[r]));
      }
      if constexpr (Y == 1) {
        _mm256_storeu_ps(d + 16 * Z,
                         _mm256_add_ps(_mm256_loadu_ps(d + 16 * Z), ty[r]));
      }
    }
  }

  // A 5x5 kernel's rows (24 lanes each) in one sweep; any other kernel
  // a row and 8 lanes at a time.
  static void ConvSparseDx(const float* w, const int32_t* wof, const float* v,
                           int64_t n, int64_t k, int64_t lanes, float* dx,
                           int64_t ld) {
    if (k == 5) {
      SparseDxRows<5, 1, 1>(w, wof, v, n, lanes, dx, ld);
      return;
    }
    for (int64_t ky = 0; ky < k; ++ky) {
      for (int64_t j0 = 0; j0 < lanes; j0 += kDxLanes) {
        SparseDxRows<1, 0, 1>(w + ky * lanes + j0, wof, v, n, lanes,
                              dx + ky * ld + j0, ld);
      }
    }
  }
};

// Up to 8 windows of one pooled row with their winners' grid offsets
// and values, and which of them are live top-row and bottom-row winners.
struct WinnerChunk {
  __m256i pos;
  __m256 value;
  __mmask8 top, bottom;
};

// The windows `in` of a row starting at (g, y, win): masked loads, so
// nothing past the row is read. `at` is each lane's top-row offset
// 2*py*wp + 2*px in positions; a bottom-row winner adds wp, a right-hand
// one 1, and the offset counts kConvRows floats per position.
[[gnu::always_inline]] inline WinnerChunk LoadWinners(
    const float* g, const float* y, const uint8_t* win, __mmask8 in,
    __m256i at, __m256i wp) {
  static_assert(kConvRows == 4, "grid offsets scale by 4 floats");
  const __m256 zero = _mm256_setzero_ps();
  const __m256i k = _mm256_cvtepu8_epi32(_mm_maskz_loadu_epi8(in, win));
  // Lanes past the row load +0 and are not live.
  const __mmask8 live =
      _mm256_cmp_ps_mask(_mm256_maskz_loadu_ps(in, y), zero, _CMP_GT_OQ);
  const __mmask8 top = _mm256_testn_epi32_mask(k, _mm256_set1_epi32(2));
  at = _mm256_add_epi32(at, _mm256_and_si256(k, _mm256_set1_epi32(1)));
  at = _mm256_mask_add_epi32(at, static_cast<__mmask8>(~top), at, wp);
  WinnerChunk chunk;
  chunk.pos = _mm256_slli_epi32(at, 2);
  chunk.value = _mm256_add_ps(zero, _mm256_maskz_loadu_ps(live, g));  // 0 + g
  chunk.top = live & top;
  chunk.bottom = live & static_cast<__mmask8>(~top);
  return chunk;
}

// Appends the chunk's winners selected by `take`, in ascending px, at
// entry n and returns the new count. The full-width stores write up to
// kWinnerSlack entries past the list (kernels_dispatch.h).
[[gnu::always_inline]] inline int64_t AppendWinners(const WinnerChunk& chunk,
                                                    __mmask8 take, int64_t n,
                                                    int32_t* pos, double* v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(pos + n),
                      _mm256_maskz_compress_epi32(take, chunk.pos));
  const __m256 packed = _mm256_maskz_compress_ps(take, chunk.value);
  _mm256_storeu_pd(v + n, _mm256_cvtps_pd(_mm256_castps256_ps128(packed)));
  _mm256_storeu_pd(v + n + 4,
                   _mm256_cvtps_pd(_mm256_extractf128_ps(packed, 1)));
  return n + __builtin_popcount(take);
}

// BlockedKernels::live_winners (kernels_dispatch.h): a row of at most 8
// windows is one chunk, loaded once; a wider row is read twice, for its
// top-row winners and then its bottom-row ones.
int64_t CollectLiveWinners(const float* g, const float* y,
                           const uint8_t* win, int64_t ph, int64_t pw,
                           int64_t wp, int32_t* pos, double* v) {
  const __m256i wpv = _mm256_set1_epi32(static_cast<int32_t>(wp));
  const __m256i two_lane = _mm256_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14);
  auto in_mask = [pw](int64_t px0) {
    return static_cast<__mmask8>((1u << std::min<int64_t>(8, pw - px0)) - 1);
  };
  // Lane l's top-row offset at column px0 + l of row py.
  auto row_at = [&](int64_t py, int64_t px0) {
    return _mm256_add_epi32(
        two_lane, _mm256_set1_epi32(static_cast<int32_t>(2 * (py * wp + px0))));
  };
  int64_t n = 0;
  for (int64_t py = 0; py < ph; ++py, g += pw, y += pw, win += pw) {
    if (pw <= 8) {
      const WinnerChunk chunk =
          LoadWinners(g, y, win, in_mask(0), row_at(py, 0), wpv);
      n = AppendWinners(chunk, chunk.top, n, pos, v);
      n = AppendWinners(chunk, chunk.bottom, n, pos, v);
      continue;
    }
    for (int half = 0; half < 2; ++half) {
      for (int64_t px0 = 0; px0 < pw; px0 += 8) {
        const WinnerChunk chunk =
            LoadWinners(g + px0, y + px0, win + px0, in_mask(px0),
                        row_at(py, px0), wpv);
        n = AppendWinners(chunk, half == 0 ? chunk.top : chunk.bottom, n, pos,
                          v);
      }
    }
  }
  return n;
}

}  // namespace

const BlockedKernels* Avx512KernelsOrNull() {
  const BlockedKernels* avx2 = Avx2KernelsOrNull();
  if (avx2 == nullptr) return nullptr;
  static const BlockedKernels table = [avx2] {
    BlockedKernels t = *avx2;
    t.conv_forward = &ConvForwardT<Avx512Traits>;
    t.conv_block_backward = &ConvBlockBackwardT<Avx512Traits>;
    t.live_winners = &CollectLiveWinners;
    t.conv_lanes = Avx512Traits::kConvLanes;
    t.conv_relu_pool = &Avx512Traits::ReluPool;
    return t;
  }();
  return &table;
}

}  // namespace internal
}  // namespace rfed

#else  // !RFED_HAVE_AVX512

#include "tensor/kernels_dispatch.h"

namespace rfed {
namespace internal {

const BlockedKernels* Avx512KernelsOrNull() { return nullptr; }

}  // namespace internal
}  // namespace rfed

#endif  // RFED_HAVE_AVX512
