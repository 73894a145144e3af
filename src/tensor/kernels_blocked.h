#ifndef RFED_TENSOR_KERNELS_BLOCKED_H_
#define RFED_TENSOR_KERNELS_BLOCKED_H_

// ISA-generic blocked GEMM driver, instantiated once per ISA TU with a
// Traits type supplying the register microkernels. Traits must provide:
//
//   static constexpr int64_t kNr;   // in-place tile cols
//   static constexpr int64_t kTr;   // TransB outputs per packed panel
//   static float Fma(float a, float b, float acc);   // fused step
//   // The in-place tile of GemmInPlaceT: C [R rows, V*kNr/2 cols]
//   // (row stride ld) += A B over s ascending, one fused rounding per
//   // step, where A(r, s) = a[r*rs + s*ss] and B row s starts at
//   // b + s*ld. R is 1..4, V is 1 or 2:
//   template <int R, int V>
//   static void InPlaceTile(const float* a, int64_t rs, int64_t ss,
//                           const float* b, int64_t ld, int64_t steps,
//                           float* c);
//   // R rows of A (row stride lda, R = 1..4) against one interleaved
//   // panel (panel[j*kTr + t] = B[p0+t, j]): out[r*kTr + t] =
//   // sum_j a[r*lda + j] * panel[j*kTr + t], ascending j, one double
//   // rounding per step (exact products make mul+add and fma chains
//   // identical — either implementation is canonical):
//   template <int R>
//   static void DotTile(const float* a, int64_t lda, const float* panel,
//                       int64_t n, double* out);
//   // Only for tables that run GemmTransBSmallT: Q = 1..4 rows of B
//   // (row stride ldb) against A transposed to doubles
//   // (at[j*kSmallRows + i] = A[i, j]): out[q*kSmallRows + i] =
//   // sum_j at[j*kSmallRows + i] * b[q*ldb + j], ascending j, one double
//   // rounding per step:
//   template <int Q>
//   static void DotCols(const double* at, const float* b, int64_t ldb,
//                       int64_t n, double* out);
//
// and, for the convolutions (ConvForwardT and ConvBlockBackwardT
// below):
//
//   // Images per lane group of the forward: 8, or 16 for a table whose
//   // groups are wider than 8. Such a table also supplies `Narrow`, the
//   // same forward members at 8 lanes, which runs a batch's last group
//   // when at most 8 images are left in it.
//   static constexpr int64_t kConvLanes;
//   // Output positions per forward tile: kConvCols (3), or 6 for a tile
//   // that holds two positions per vector. A table with 6 runs only
//   // shapes whose Wo is even (the fused block's), so its Q is always
//   // 2, 4 or 6.
//   static constexpr int64_t kTileCols;
//   // The lane forward tile, kConvRows output channels x Q = 1..kTileCols
//   // output positions of kConvLanes images each: for r, q and lane l,
//   //   c[r*ldc + q*kConvLanes + l] = chain over p < kc, ascending, of
//   //     wp[p*kConvRows + r] * base[off[p] + q*kConvLanes + l]
//   // from +0, one fused step per p. base, off[p] and c are aligned to
//   // one vector of kConvLanes floats (off[p] and ldc multiples of
//   // kConvLanes):
//   template <int Q>
//   static void ConvTile(const float* wp, const float* base,
//                        const int64_t* off, int64_t kc, float* c,
//                        int64_t ldc);
//   // The forward's lane grid of one group (xl aligned like ConvTile's
//   // base; the scalar semantics are InterleaveLanesRange below):
//   static void InterleaveLanes(const float* x, int64_t n, int64_t live,
//                               const int64_t* pos, float* xl);
//   // The fused block's sparse backward (ConvBlockBackwardT below).
//   // The interleaved copy of x (the scalar semantics are
//   // CopyIntoInterleavedRange below):
//   static void CopyIntoInterleaved(const float* src, int64_t live,
//                                   int64_t h, int64_t w, int64_t pad,
//                                   int64_t wp, double* xd);
//   // dw: for r < rows, kx < k and c < kConvRows,
//   //   out[(r*k + kx)*kConvRows + c] = sum over e < n, ascending, of
//   //     v[e] * x[pos[e] + r*ldx + kx*kConvRows + c]
//   // from +0 (exact products, one double rounding per step). kDwChains
//   // is the taps (each kConvRows double chains) one call holds at once:
//   // ConvBlockBackwardT passes max(1, kDwChains / k) kernel rows at a
//   // time, so 25 runs a 5x5 kernel's taps in one pass over each winner
//   // list:
//   static constexpr int64_t kDwChains;
//   static void ConvSparseDw(const double* x, int64_t ldx, int64_t k,
//                            int64_t rows, const int32_t* pos,
//                            const double* v, int64_t n, double* out);
//   // dx of one output position: for ky < k and j < lanes (a multiple
//   // of kDxLanes), dx[ky*ld + j] += (fused chain over e < n, ascending,
//   // of w[wof[e] + ky*lanes + j] * v[e], from +0):
//   static constexpr int64_t kDxLanes;
//   static void ConvSparseDx(const float* w, const int32_t* wof,
//                            const float* v, int64_t n, int64_t k,
//                            int64_t lanes, float* dx, int64_t ld);
//   // BlockedKernels::conv_relu_pool, the lane epilogue (the scalar
//   // semantics are ReluPoolLanesRange below):
//   static void ReluPool(const float* sums, const float* bias,
//                        int64_t channels, int64_t rows, int64_t cols,
//                        int64_t live, int64_t stride, float* out,
//                        uint8_t* window);
//
// The sparse backward's winner lists are not a Traits member: the
// driver calls the table's live_winners entry (CollectLiveWinnersRange
// below is its scalar semantics).
//
// and, for the activation layer and the element-wise kernels (the
// *Range functions below are the scalar semantics, and the generic
// table's whole implementation):
//
//   static void Relu(const float* x, int64_t n, float* y);
//   static void ReluMask(const float* g, const float* x, int64_t n,
//                        float* out);
//   static void Add / Sub / Scale / Axpy / Sgd / RmsProp(...);
//     // the BlockedKernels signatures
//
// Every instantiation computes the canonical summation order of
// kernels.h, so instantiations differ only in speed, never in bits.
// The drivers below own all blocking, packing and remainder handling;
// the Traits own only register tiles.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "tensor/kernels_dispatch.h"
#include "util/check.h"

namespace rfed {
namespace internal {
// Each ISA TU compiles its own copy of everything below with its own
// instruction-set flags. Internal linkage keeps the copies apart: as
// shared inline definitions, the linker could hand the generic table a
// copy compiled with -mavx2.
namespace {

/// y[i] = x[i] if x[i] > 0, else +0 — std::max(0.0f, v) exactly (NaN
/// and -0 give +0) — with the compare turned into a bit mask so that no
/// data-dependent branch is taken. y may equal x.
inline void ReluRange(const float* x, int64_t n, float* y) {
  for (int64_t i = 0; i < n; ++i) {
    uint32_t bits;
    std::memcpy(&bits, x + i, sizeof(bits));
    bits &= 0u - static_cast<uint32_t>(x[i] > 0.0f);
    std::memcpy(y + i, &bits, sizeof(bits));
  }
}

/// out[i] = g[i] unless x[i] <= 0, then +0: the gradient passes where
/// x > 0 and where x is NaN. Branch-free like ReluRange; out may equal g.
inline void ReluMaskRange(const float* g, const float* x, int64_t n,
                          float* out) {
  for (int64_t i = 0; i < n; ++i) {
    uint32_t bits;
    std::memcpy(&bits, g + i, sizeof(bits));
    bits &= 0u - static_cast<uint32_t>(!(x[i] <= 0.0f));
    std::memcpy(out + i, &bits, sizeof(bits));
  }
}

/// The conv epilogue's rule for one 2x2 window of conv sums (row-major):
/// each is the sum plus the bias, clamped as in ReluRange, and the pool
/// takes a candidate only when it is strictly greater than the running
/// max — so ties keep the earlier element (after the clamp no NaN is
/// left). Selects, not jumps: the compares become masks.
inline void PoolWindow(const float sums[4], float bias, float* out,
                       uint8_t* window) {
  const float v[4] = {sums[0] + bias, sums[1] + bias, sums[2] + bias,
                      sums[3] + bias};
  float r[4];
  ReluRange(v, 4, r);
  float best = r[0];
  uint32_t best_k = 0;
  for (uint32_t k = 1; k < 4; ++k) {
    const uint32_t take = 0u - static_cast<uint32_t>(r[k] > best);
    best = r[k] > best ? r[k] : best;
    best_k ^= (best_k ^ k) & take;
  }
  *out = best;
  *window = static_cast<uint8_t>(best_k);
}

/// PoolWindow over `channels` dense planes of rows x cols conv sums
/// (rows, cols even), writing the pooled [channels, rows/2, cols/2] and
/// one window byte per pooled output: the epilogue of the conv forward's
/// reference fallback (shapes off the lane grid).
inline void ReluPoolRange(const float* sums, const float* bias,
                          int64_t channels, int64_t rows, int64_t cols,
                          float* out, uint8_t* window) {
  const int64_t po = cols / 2;
  for (int64_t c = 0; c < channels; ++c) {
    for (int64_t py = 0; py < rows / 2; ++py) {
      const float* top = sums + (c * rows + 2 * py) * cols;
      const int64_t at = (c * rows / 2 + py) * po;
      for (int64_t px = 0; px < po; ++px) {
        const float v[4] = {top[2 * px], top[2 * px + 1], top[cols + 2 * px],
                            top[cols + 2 * px + 1]};
        PoolWindow(v, bias[c], out + at + px, window + at + px);
      }
    }
  }
}

// ---- Element-wise loops ----
// The scalar semantics of the element-wise kernels (kernels.h): each
// element's operations in source order, unfused. The SIMD tables run
// the same operations per lane and these loops on their tails.

inline void AddRange(float* x, const float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = x[i] + y[i];
}

inline void PlusZeroRange(const float* x, int64_t n, float* y) {
  for (int64_t i = 0; i < n; ++i) y[i] = 0.0f + x[i];
}

inline void SubRange(float* x, const float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = x[i] - y[i];
}

inline void ScaleRange(float* x, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = x[i] * s;
}

inline void AxpyRange(float* x, float s, const float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = x[i] + s * y[i];
}

inline void SgdRange(float* w, const float* g, float* v, int64_t n,
                     const SgdStep& st) {
  if (v == nullptr) {
    for (int64_t i = 0; i < n; ++i) {
      w[i] = w[i] - st.lr * (g[i] + st.weight_decay * w[i]);
    }
    return;
  }
  for (int64_t i = 0; i < n; ++i) {
    v[i] = st.momentum * v[i] + g[i] + st.weight_decay * w[i];
    w[i] = w[i] - st.lr * v[i];
  }
}

inline void RmsPropRange(float* w, const float* g, float* ms, int64_t n,
                         const RmsPropStep& st) {
  const float decay = 1.0f - st.alpha;
  for (int64_t i = 0; i < n; ++i) {
    ms[i] = st.alpha * ms[i] + decay * g[i] * g[i];
    w[i] = w[i] - st.lr * g[i] / (std::sqrt(ms[i]) + st.eps);
  }
}

/// Calls fn(std::integral_constant<int, R>{}) with R = count, 1..4: how
/// a loop picks the tile instantiation for the rows or outputs left.
template <typename Fn>
void WithCount(int64_t count, const Fn& fn) {
  switch (count) {
    case 4:
      fn(std::integral_constant<int, 4>{});
      break;
    case 3:
      fn(std::integral_constant<int, 3>{});
      break;
    case 2:
      fn(std::integral_constant<int, 2>{});
      break;
    default:
      fn(std::integral_constant<int, 1>{});
      break;
  }
}

/// One column strip of GemmInPlaceT: tiles of 4 rows, each V*kNr/2
/// columns wide, the last tile taking the rows left over.
template <typename Traits, int V>
void InPlaceStrip(const float* a, int64_t rs, int64_t ss, const float* b,
                  int64_t rows, int64_t steps, int64_t ld, float* c) {
  for (int64_t r = 0; r < rows; r += 4) {
    WithCount(std::min<int64_t>(4, rows - r), [&](auto tile_rows) {
      Traits::template InPlaceTile<tile_rows(), V>(a + r * rs, rs, ss, b, ld,
                                                   steps, c + r * ld);
    });
  }
}

/// The in-place GEMM (BlockedKernels::gemm_in_place): C[rows,n]
/// += A B with A(r, s) = a[r*rs + s*ss], so GemmAdd's A rows and
/// GemmTransAAdd's A columns are both read where they lie, and B's rows
/// are read straight from B. Nothing is packed or staged. Columns run
/// in kNr-wide strips, then one kNr/2-wide strip, then single columns
/// of scalar fused chains. Every tile loads its C block, takes one
/// fused step per s in ascending order and stores it back: the
/// reference's sequence for every element.
template <typename Traits>
void GemmInPlaceT(const float* a, int64_t rs, int64_t ss, const float* b,
                  int64_t rows, int64_t steps, int64_t n, float* c) {
  constexpr int64_t nr = Traits::kNr;
  constexpr int64_t half = nr / 2;
  int64_t j = 0;
  for (; j + nr <= n; j += nr) {
    InPlaceStrip<Traits, 2>(a, rs, ss, b + j, rows, steps, n, c + j);
  }
  for (; j + half <= n; j += half) {
    InPlaceStrip<Traits, 1>(a, rs, ss, b + j, rows, steps, n, c + j);
  }
  for (; j < n; ++j) {
    for (int64_t r = 0; r < rows; ++r) {
      const float* ar = a + r * rs;
      float acc = c[r * n + j];
      for (int64_t s = 0; s < steps; ++s) {
        acc = Traits::Fma(ar[s * ss], b[s * n + j], acc);
      }
      c[r * n + j] = acc;
    }
  }
}

/// The blocked GemmTransBAssign driver: interleaves kTr consecutive
/// rows of B once per call, so one pass over the rows of A feeds kTr
/// independent double-precision accumulator chains per row, and runs
/// up to 4 rows of A against each panel at once (4*kTr chains sharing
/// every panel load). Each chain still reduces in ascending j order
/// with exact float*float products, so every dot is bit-identical to
/// the reference.
template <typename Traits>
void GemmTransBBlockedT(const float* a, const float* b, int64_t m, int64_t n,
                        int64_t k, float* c) {
  constexpr int64_t tr = Traits::kTr;
  const int64_t ktile = k / tr * tr;
  float* bp = ScratchArena::ThreadLocal().Buffer(
      kSlotPackTB, static_cast<size_t>(ktile * n));
  for (int64_t p0 = 0; p0 < ktile; p0 += tr) {
    float* panel = bp + p0 * n;
    for (int64_t j = 0; j < n; ++j) {
      for (int64_t t = 0; t < tr; ++t) {
        panel[j * tr + t] = b[(p0 + t) * n + j];
      }
    }
  }
  for (int64_t i = 0; i < m; i += 4) {
    const int64_t rows = std::min<int64_t>(4, m - i);
    const float* arows = a + i * n;
    float* crows = c + i * k;
    for (int64_t p0 = 0; p0 < ktile; p0 += tr) {
      double acc[4 * tr];
      WithCount(rows, [&](auto tile_rows) {
        Traits::template DotTile<tile_rows()>(arows, n, bp + p0 * n, n, acc);
      });
      for (int64_t r = 0; r < rows; ++r) {
        for (int64_t t = 0; t < tr; ++t) {
          crows[r * k + p0 + t] = static_cast<float>(acc[r * tr + t]);
        }
      }
    }
    for (int64_t r = 0; r < rows; ++r) {
      const float* arow = arows + r * n;
      for (int64_t p = ktile; p < k; ++p) {
        const float* brow = b + p * n;
        double acc = 0.0;
        for (int64_t j = 0; j < n; ++j) {
          acc += static_cast<double>(arow[j]) * brow[j];
        }
        crows[r * k + p] = static_cast<float>(acc);
      }
    }
  }
}

/// Rows of A the small GemmTransBAssign path holds in one transposed
/// column (two __m256d on AVX2): its limit on m.
inline constexpr int64_t kSmallRows = kInPlaceMaxRows;

/// The small GemmTransBAssign path (m <= kSmallRows): transposes A
/// once into doubles, at[j*kSmallRows + i] (rows past m zero, their
/// chains dropped), then runs up to 4 outputs p at a time, each as
/// kSmallRows double chains, one per row of A, reading row p of B where
/// it lies. Each chain is the reference's dot: ascending j, exact
/// products, one double rounding per step.
template <typename Traits>
void GemmTransBSmallT(const float* a, const float* b, int64_t m, int64_t n,
                      int64_t k, float* c) {
  constexpr int64_t rows = kSmallRows;
  double* at = static_cast<double*>(ScratchArena::ThreadLocal().Bytes(
      kSlotPackTB, sizeof(double) * static_cast<size_t>(rows * n)));
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t i = 0; i < rows; ++i) {
      at[j * rows + i] = i < m ? a[i * n + j] : 0.0;
    }
  }
  for (int64_t p = 0; p < k; p += 4) {
    const int64_t outs = std::min<int64_t>(4, k - p);
    double acc[4 * rows];
    const float* bp = b + p * n;
    WithCount(outs, [&](auto tile_outs) {
      Traits::template DotCols<tile_outs()>(at, bp, n, n, acc);
    });
    for (int64_t q = 0; q < outs; ++q) {
      for (int64_t i = 0; i < m; ++i) {
        c[i * k + p + q] = static_cast<float>(acc[q * rows + i]);
      }
    }
  }
}

// ---- Convolution (stride 1) ----
//
// The im2col matrix is never built.
//
// Forward (ConvForwardT) puts images, not output columns, in the SIMD
// lanes. Each group of L = Traits::kConvLanes images is interleaved once
// into a zero-padded lane grid xl[c][y][x][L] with rows wp = w + 2*pad
// positions wide. There the im2col entry of patch index p = (c, ky, kx)
// at output (oy, ox) is one aligned vector, at off[p] + (oy*wp + ox)
// vectors, with off[p] = c*plane + ky*wp + kx: one vector holds that
// entry for every image of the group. The tile runs kConvRows output
// channels x kConvCols positions of one output row, so only the ho x wo
// real outputs are computed. The lanes past the batch in the last group
// read zeros and are never written out. With 16 lanes, a last group of
// at most 8 images runs at 8 lanes (Traits::Narrow), so B = 24 is one
// group of each width and B = 150 is 9 x 16 + 6.
//
// The fused block's backward (ConvBlockBackwardT, further below) runs
// on a zero-padded grid of the same row width.
//
// Bit identity of the forward with ref:: holds for finite inputs: each
// output is one fused chain from +0 over exactly the im2col entries the
// reference reads, padding zeros included, in ascending p; then
// sum + bias, as the reference adds it, and the ReLU and pool of
// PoolWindow. Lanes never mix: a NaN or Inf in one image reaches only
// that image's outputs, for any input.

// Channels per register tile: output channels of ConvTile, input
// channels per interleaved group of the block backward.
inline constexpr int64_t kConvRows = 4;
// Output positions per forward tile (Traits::kTileCols of every table
// but AVX-512's narrow one): at 8 lanes, kConvRows x kConvCols
// accumulators plus kConvCols loads and a broadcast fill the 16 ymm
// registers.
inline constexpr int64_t kConvCols = 3;
// The lane width of a table's narrow forward groups (Traits::Narrow).
inline constexpr int64_t kNarrowLanes = 8;

/// Geometry of one padded-grid convolution.
struct ConvGrid {
  explicit ConvGrid(const ConvKernelShape& s)
      : k(s.kernel), cin(s.in_channels), cout(s.out_channels),
        h(s.height), w(s.width), pad(s.pad), ho(s.OutH()), wo(s.OutW()),
        patch(s.Patch()), taps(k * k), wp(w + 2 * pad),
        plane((h + 2 * pad) * wp) {}
  int64_t k, cin, cout, h, w, pad, ho, wo, patch, taps;
  int64_t wp, plane;  // padded input row width and plane size
};

inline int64_t RoundUp(int64_t n, int64_t m) { return (n + m - 1) / m * m; }

/// Lays out consecutive 64-byte-aligned arrays in one scratch slot.
class ScratchLayout {
 public:
  template <typename T>
  size_t Add(int64_t count) {
    const size_t at = bytes_;
    bytes_ += static_cast<size_t>(RoundUp(
        static_cast<int64_t>(sizeof(T)) * std::max<int64_t>(count, 0), 64));
    return at;
  }
  char* Claim(int slot) const {
    return static_cast<char*>(
        ScratchArena::ThreadLocal().Bytes(slot, std::max<size_t>(bytes_, 1)));
  }

 private:
  size_t bytes_ = 0;
};

template <typename T>
T* At(char* base, size_t offset) {
  return reinterpret_cast<T*>(base + offset);
}

/// off[p] for p = (c, ky, kx): where im2col row p starts in a padded
/// image whose positions are `unit` floats apart.
inline void ConvRowOffsets(const ConvGrid& g, int64_t unit, int64_t* off) {
  int64_t p = 0;
  for (int64_t c = 0; c < g.cin; ++c) {
    for (int64_t ky = 0; ky < g.k; ++ky) {
      for (int64_t kx = 0; kx < g.k; ++kx) {
        off[p++] = (c * g.plane + ky * g.wp + kx) * unit;
      }
    }
  }
}

/// The lane grid of a group of images n floats apart (the scalar
/// semantics of Traits::InterleaveLanes): for j < n and lane l < Lanes,
/// xl[pos[j]*Lanes + l] is x[l*n + j] for the live images and 0 for the
/// lanes past `live`.
template <int64_t Lanes>
void InterleaveLanesRange(const float* x, int64_t n, int64_t live,
                          const int64_t* pos, float* xl) {
  for (int64_t l = 0; l < Lanes; ++l) {
    const float* src = x + l * n;
    for (int64_t j = 0; j < n; ++j) {
      xl[pos[j] * Lanes + l] = l < live ? src[j] : 0.0f;
    }
  }
}

/// The lane epilogue of BlockedKernels::conv_relu_pool, one lane at a
/// time: `sums` holds `channels` planes of rows x cols conv sums (rows,
/// cols even) for Lanes images, element (c, y, x) of lane l at
/// sums[((c*rows + y)*cols + x)*Lanes + l]. Each 2x2 window goes
/// through PoolWindow with bias[c], and lane l < live writes its pooled
/// [channels, rows/2, cols/2] and window bytes to its own image, at
/// out + l*stride and window + l*stride. Lanes past live are never
/// written.
template <int64_t Lanes>
void ReluPoolLanesRange(const float* sums, const float* bias,
                        int64_t channels, int64_t rows, int64_t cols,
                        int64_t live, int64_t stride, float* out,
                        uint8_t* window) {
  const int64_t pw = cols / 2;
  for (int64_t c = 0; c < channels; ++c) {
    for (int64_t py = 0; py < rows / 2; ++py) {
      for (int64_t px = 0; px < pw; ++px) {
        const float* top =
            sums + ((c * rows + 2 * py) * cols + 2 * px) * Lanes;
        const float* bottom = top + cols * Lanes;
        const int64_t at = (c * rows / 2 + py) * pw + px;
        for (int64_t l = 0; l < live; ++l) {
          const float v[4] = {top[l], top[Lanes + l], bottom[l],
                              bottom[Lanes + l]};
          PoolWindow(v, bias[c], out + l * stride + at,
                     window + l * stride + at);
        }
      }
    }
  }
}

/// One lane group of ConvForwardT at T::kConvLanes lanes, images i0 to
/// i0 + live - 1: the group is interleaved once, then per tile of
/// kConvRows output channels the ConvTile calls (T::kTileCols positions
/// each, the row's last one taking what is left) fill the tile's
/// sums[r][oy][ox][lane] with only the real outputs, and T::ReluPool
/// writes each live lane's pooled outputs and window bytes to its own
/// image while the sums are in cache (the full-size outputs are never
/// written). `off` holds the im2col row offsets in units of
/// T::kConvLanes; `out_size` is one image's pooled output count.
template <typename T>
void ConvGroupT(const ConvGrid& g, const float* x, const float* wpack,
                const float* bias, const int64_t* off, const int64_t* pos,
                int64_t i0, int64_t live, int64_t out_size, float* xl,
                float* sums, float* out, uint8_t* window) {
  constexpr int64_t mr = kConvRows;
  constexpr int64_t lanes = T::kConvLanes;
  constexpr int64_t cols = T::kTileCols;
  // A tile's position count is a multiple of `step`: 1, or 2 for a tile
  // of position pairs, which needs an even Wo.
  constexpr int step = static_cast<int>(cols / kConvCols);
  static_assert(cols == step * kConvCols, "kTileCols is 3 or 6");
  RFED_CHECK(g.wo % step == 0) << "a tile of position pairs needs an even Wo";
  const int64_t tiles = (g.cout + mr - 1) / mr;
  const int64_t area = g.ho * g.wo;
  const int64_t in_size = g.cin * g.h * g.w;
  T::InterleaveLanes(x + i0 * in_size, in_size, live, pos, xl);
  for (int64_t t = 0; t < tiles; ++t) {
    for (int64_t oy = 0; oy < g.ho; ++oy) {
      for (int64_t ox = 0; ox < g.wo; ox += cols) {
        WithCount(std::min(cols, g.wo - ox) / step, [&](auto units) {
          if constexpr (units() <= kConvCols) {
            T::template ConvTile<units() * step>(
                wpack + t * g.patch * mr, xl + (oy * g.wp + ox) * lanes, off,
                g.patch, sums + (oy * g.wo + ox) * lanes, area * lanes);
          }
        });
      }
    }
    const int64_t oc0 = t * mr;
    const int64_t channels = std::min(mr, g.cout - oc0);
    const int64_t at = i0 * out_size + oc0 * area / 4;
    T::ReluPool(sums, bias + oc0, channels, g.ho, g.wo, live, out_size,
                out + at, window + at);
  }
}

/// The forward (BlockedKernels::conv_forward) on the lane grid: the
/// batch runs in groups of Traits::kConvLanes images (ConvGroupT). On a
/// table wider than 8 lanes, the last group runs at 8 lanes
/// (Traits::Narrow) when at most 8 images are left for it.
template <typename Traits>
void ConvForwardT(const float* x, const float* w, const float* bias,
                  const ConvKernelShape& s, float* out, uint8_t* window) {
  constexpr int64_t mr = kConvRows;
  constexpr int64_t lanes = Traits::kConvLanes;
  constexpr bool narrow_tail = lanes > kNarrowLanes;
  if (s.batch <= 0) return;
  const ConvGrid g(s);
  const int64_t tiles = (g.cout + mr - 1) / mr;
  const int64_t area = g.ho * g.wo;
  // The call's operands: the weights packed p-major in tiles of mr
  // output channels (rows past cout zero), the im2col row offsets at
  // each group width and the input positions on the lane grid.
  ScratchLayout shared;
  const size_t wpack_at = shared.Add<float>(tiles * g.patch * mr);
  const size_t off_at = shared.Add<int64_t>(g.patch);
  const size_t off_narrow_at = shared.Add<int64_t>(narrow_tail ? g.patch : 0);
  const size_t pos_at = shared.Add<int64_t>(g.cin * g.h * g.w);
  char* shared_base = shared.Claim(kSlotConvOperands);
  float* wpack = At<float>(shared_base, wpack_at);
  int64_t* off = At<int64_t>(shared_base, off_at);
  int64_t* off_narrow = At<int64_t>(shared_base, off_narrow_at);
  int64_t* pos = At<int64_t>(shared_base, pos_at);
  for (int64_t t = 0; t < tiles; ++t) {
    for (int64_t p = 0; p < g.patch; ++p) {
      for (int64_t r = 0; r < mr; ++r) {
        const int64_t oc = t * mr + r;
        wpack[(t * g.patch + p) * mr + r] =
            oc < g.cout ? w[oc * g.patch + p] : 0.0f;
      }
    }
  }
  ConvRowOffsets(g, lanes, off);
  if (narrow_tail) ConvRowOffsets(g, kNarrowLanes, off_narrow);
  // pos[j]: the lane-grid position of input element j of an image.
  for (int64_t c = 0, j = 0; c < g.cin; ++c) {
    for (int64_t y = 0; y < g.h; ++y) {
      for (int64_t ix = 0; ix < g.w; ++ix) {
        pos[j++] = c * g.plane + (y + g.pad) * g.wp + g.pad + ix;
      }
    }
  }
  // Per image: the quarter-size pooled outputs and their window bytes.
  const int64_t out_size = g.cout * area / 4;
  ScratchLayout mine;
  const int64_t xl_len = g.cin * g.plane * lanes;
  const size_t xl_at = mine.Add<float>(xl_len);
  const size_t sums_at = mine.Add<float>(mr * area * lanes);
  char* base = mine.Claim(kSlotConvImage);
  float* xl = At<float>(base, xl_at);
  float* sums = At<float>(base, sums_at);
  // Only interiors are rewritten per group; the padding stays zero.
  std::memset(xl, 0, sizeof(float) * static_cast<size_t>(xl_len));
  for (int64_t i0 = 0; i0 < s.batch; i0 += lanes) {
    const int64_t live = std::min(lanes, s.batch - i0);
    if constexpr (narrow_tail) {
      if (live <= kNarrowLanes) {
        // The batch's last group: the narrow grid reuses the front of
        // xl, so its padding is zeroed first.
        std::memset(xl, 0,
                    sizeof(float) *
                        static_cast<size_t>(g.cin * g.plane * kNarrowLanes));
        ConvGroupT<typename Traits::Narrow>(g, x, wpack, bias, off_narrow,
                                            pos, i0, live, out_size, xl, sums,
                                            out, window);
        continue;
      }
    }
    ConvGroupT<Traits>(g, x, wpack, bias, off, pos, i0, live, out_size, xl,
                       sums, out, window);
  }
}

// ---- The fused conv block's backward, at the gradient's sparsity ----
//
// The gradient of a conv block's conv output is nonzero only at a
// window's winner, and only where the winner passed the ReLU (y > 0);
// there it is 0 + grad (-0 becomes +0). ConvBlockBackwardT reads
// (grad, y, window) and adds terms only for those live winners. Each
// skipped term of ref::Conv2dBackwardKernel on the routed gradient is
// +-0 * finite, and for finite operands dropping such terms changes no
// bit as long as the kept ones keep the reference's order
// (docs/KERNELS.md, "The conv block's backward"):
//  * db and dw: each (oc, p) double chain walks its channel's winners in
//    ascending (oy, ox), so in each pooled row the top-row winners
//    (window 0, 1) come before the bottom-row ones (2, 3);
//  * dx: each dx element adds one fused chain t over oc per tap, taps
//    ascending in (ky, kx). Output positions are scattered in
//    descending raster order, which meets every dx element's taps in
//    ascending order, and each t runs over its position's live channels
//    in ascending oc.
//
// Layouts. dw reads each image as doubles, interleaved in groups of
// kConvRows input channels on the zero-padded grid,
// xd[group][y][x][kConvRows] with rows wp positions wide: one vector
// load serves a tap's chains for four input channels, and whole kernel
// rows of taps (up to kDwChains taps) keep their chains in registers
// while a channel's winners stream past. Each image's dw terms are kept
// in that tap-major order ([oc][group][tap][c]) and transposed into dw
// once per call. dx adds into a padded float scratch of the same shape
// whose rows are ld floats wide, with the weights laid out
// wdx[group][oc][ky][lane], lane = kx*kConvRows + c, rounded up to a
// multiple of kDxLanes with zero weights: one (position, ky) step adds
// `lanes` contiguous floats. The lanes past k*kConvRows add fused chains
// of 0 * v, i.e. +0, to scratch floats that are never -0; ld leaves
// room for them.

/// Interleaves `live` channels of one image into the interior of the
/// padded grid xd[y][x][kConvRows]; the rest of xd keeps its zeros (the
/// scalar semantics of Traits::CopyIntoInterleaved).
inline void CopyIntoInterleavedRange(const float* src, int64_t live,
                                     int64_t h, int64_t w, int64_t pad,
                                     int64_t wp, double* xd) {
  for (int64_t y = 0; y < h; ++y) {
    double* d = xd + ((y + pad) * wp + pad) * kConvRows;
    for (int64_t x = 0; x < w; ++x) {
      for (int64_t c = 0; c < live; ++c) {
        d[x * kConvRows + c] = src[(c * h + y) * w + x];
      }
    }
  }
}

/// BlockedKernels::live_winners, one window at a time (kernels_dispatch.h
/// has the contract). A stable partition written without branches:
/// every window is written, a dead one to the spare slot pos[ph*pw].
inline int64_t CollectLiveWinnersRange(const float* g, const float* y,
                                  const uint8_t* win, int64_t ph, int64_t pw,
                                  int64_t wp, int32_t* pos, double* v) {
  const int64_t spare = ph * pw;
  int64_t n = 0;
  for (int64_t py = 0; py < ph; ++py, g += pw, y += pw, win += pw) {
    int64_t tops = 0;
    for (int64_t px = 0; px < pw; ++px) {
      tops += static_cast<int64_t>((win[px] & 3) < 2) &
              static_cast<int64_t>(y[px] > 0.0f);
    }
    int64_t top_at = n, bottom_at = n + tops;
    const int64_t row_at = 2 * py * wp;
    for (int64_t px = 0; px < pw; ++px) {
      const int64_t k = win[px] & 3;
      const int64_t top = static_cast<int64_t>(k < 2);
      const int64_t live = static_cast<int64_t>(y[px] > 0.0f);
      const int64_t keep = -live;  // all ones when live
      const int64_t slot =
          ((top != 0 ? top_at : bottom_at) & keep) | (spare & ~keep);
      pos[slot] = static_cast<int32_t>(
          (row_at + (k >> 1) * wp + 2 * px + (k & 1)) * kConvRows);
      v[slot] = 0.0f + g[px];
      top_at += live & top;
      bottom_at += live & (top ^ 1);
    }
    n = bottom_at;
  }
  return n;
}

template <typename Traits>
void ConvBlockBackwardT(const float* grad, const float* y,
                        const uint8_t* window, const float* x, const float* w,
                        const ConvKernelShape& s, float* dx, float* dw,
                        float* db, LiveWinnersFn live_winners) {
  constexpr int64_t cr = kConvRows;
  if (s.batch <= 0 || (dx == nullptr && dw == nullptr && db == nullptr)) {
    return;
  }
  const ConvGrid g(s);
  const int64_t ph = g.ho / 2, pw = g.wo / 2, pooled = ph * pw;
  const int64_t groups = (g.cin + cr - 1) / cr;
  const int64_t rows = g.ho + g.k - 1;  // padded rows: h + 2*pad
  const int64_t ldx = g.wp * cr;
  const int64_t lanes = RoundUp(g.k * cr, Traits::kDxLanes);
  const int64_t ld = ldx + lanes - g.k * cr;
  const int64_t wdx_group = g.cout * g.k * lanes;
  const int64_t in_size = g.cin * g.h * g.w;
  // dw passes cover whole kernel rows, as many as kDwChains taps allow.
  const int64_t pass_rows = std::max<int64_t>(1, Traits::kDwChains / g.k);
  const bool per_channel = dw != nullptr || db != nullptr;
  const int64_t dwt_size = dw != nullptr ? g.cout * groups * g.taps * cr : 0;
  ScratchLayout shared;
  const size_t wdx_at =
      shared.Add<float>(dx != nullptr ? groups * wdx_group : 0);
  const size_t dwt_at = shared.Add<float>(dwt_size);
  char* shared_base = shared.Claim(kSlotConvOperands);
  float* wdx = At<float>(shared_base, wdx_at);
  // Each image's dw terms are added here as soon as it is done, in
  // ascending image order: the reference's float additions.
  float* dwt = At<float>(shared_base, dwt_at);
  std::fill(dwt, dwt + dwt_size, 0.0f);
  if (dx != nullptr) {
    for (int64_t cg = 0; cg < groups; ++cg) {
      for (int64_t oc = 0; oc < g.cout; ++oc) {
        for (int64_t ky = 0; ky < g.k; ++ky) {
          float* row = wdx + cg * wdx_group + (oc * g.k + ky) * lanes;
          for (int64_t lane = 0; lane < lanes; ++lane) {
            const int64_t kx = lane / cr, c = cg * cr + lane % cr;
            row[lane] = kx < g.k && c < g.cin
                            ? w[oc * g.patch + c * g.taps + ky * g.k + kx]
                            : 0.0f;
          }
        }
      }
    }
  }
  ScratchLayout mine;
  const size_t xd_at =
      mine.Add<double>(dw != nullptr ? groups * rows * ldx : 0);
  const size_t acc_at = mine.Add<double>(pass_rows * g.k * cr);
  // One channel's live winners (dw, db) and the entries past them
  // that live_winners may write.
  const size_t pos_at = mine.Add<int32_t>(pooled + kWinnerSlack);
  const size_t v_at = mine.Add<double>(pooled + kWinnerSlack);
  // dx: the scratch, and per pooled row each output position's live
  // channels (weight offset and value, at most cout per position).
  const int64_t slots = dx != nullptr ? 4 * pw * g.cout : 0;
  const size_t dxs_at =
      mine.Add<float>(dx != nullptr ? groups * rows * ld : 0);
  const size_t count_at = mine.Add<int32_t>(dx != nullptr ? 4 * pw : 0);
  const size_t wof_at = mine.Add<int32_t>(slots);
  const size_t bv_at = mine.Add<float>(slots);
  char* base = mine.Claim(kSlotConvImage);
  double* xd = At<double>(base, xd_at);
  double* acc = At<double>(base, acc_at);
  int32_t* pos = At<int32_t>(base, pos_at);
  double* v = At<double>(base, v_at);
  float* dxs = At<float>(base, dxs_at);
  int32_t* count = At<int32_t>(base, count_at);
  int32_t* wof = At<int32_t>(base, wof_at);
  float* bv = At<float>(base, bv_at);
  // Only xd's interiors are rewritten per image; the padding and the
  // channel lanes past cin stay zero.
  if (dw != nullptr) std::fill(xd, xd + groups * rows * ldx, 0.0);
  for (int64_t i = 0; i < s.batch; ++i) {
    const int64_t at = i * g.cout * pooled;
    const float* gi = grad + at;
    const float* yi = y + at;
    const uint8_t* wi = window + at;
    if (dw != nullptr) {
      for (int64_t cg = 0; cg < groups; ++cg) {
        Traits::CopyIntoInterleaved(x + i * in_size + cg * cr * g.h * g.w,
                                    std::min(cr, g.cin - cg * cr), g.h, g.w,
                                    g.pad, g.wp, xd + cg * rows * ldx);
      }
    }
    for (int64_t oc = 0; per_channel && oc < g.cout; ++oc) {
      const int64_t n =
          live_winners(gi + oc * pooled, yi + oc * pooled, wi + oc * pooled,
                       ph, pw, g.wp, pos, v);
      if (db != nullptr) {
        double sum = 0.0;
        for (int64_t e = 0; e < n; ++e) sum += v[e];
        db[oc] += static_cast<float>(sum);
      }
      if (dw == nullptr) continue;
      for (int64_t cg = 0; cg < groups; ++cg) {
        for (int64_t ky0 = 0; ky0 < g.k; ky0 += pass_rows) {
          const int64_t pass = std::min(pass_rows, g.k - ky0);
          Traits::ConvSparseDw(xd + cg * rows * ldx + ky0 * ldx, ldx, g.k,
                               pass, pos, v, n, acc);
          float* d = dwt + ((oc * groups + cg) * g.taps + ky0 * g.k) * cr;
          for (int64_t j = 0; j < pass * g.k * cr; ++j) {
            d[j] += static_cast<float>(acc[j]);
          }
        }
      }
    }
    if (dx == nullptr) continue;
    std::fill(dxs, dxs + groups * rows * ld, 0.0f);
    for (int64_t py = ph - 1; py >= 0; --py) {
      // Bucket the row's live channels by output position (window
      // index b of pooled column px), ascending oc; each candidate is
      // written, and kept only if live.
      std::fill(count, count + 4 * pw, 0);
      for (int64_t px = 0; px < pw; ++px) {
        for (int64_t oc = 0; oc < g.cout; ++oc) {
          const int64_t idx = (oc * ph + py) * pw + px;
          const int64_t b = px * 4 + (wi[idx] & 3);
          const int64_t slot = b * g.cout + count[b];
          wof[slot] = static_cast<int32_t>(oc * g.k * lanes);
          bv[slot] = 0.0f + gi[idx];
          count[b] += static_cast<int32_t>(yi[idx] > 0.0f);
        }
      }
      // Descending raster order: the bottom row, then the top row,
      // each from the right.
      for (int64_t half = 1; half >= 0; --half) {
        for (int64_t px = pw - 1; px >= 0; --px) {
          for (int64_t col = 1; col >= 0; --col) {
            const int64_t b = px * 4 + half * 2 + col;
            if (count[b] == 0) continue;
            const int64_t at_pos =
                (2 * py + half) * ld + (2 * px + col) * cr;
            for (int64_t cg = 0; cg < groups; ++cg) {
              Traits::ConvSparseDx(wdx + cg * wdx_group, wof + b * g.cout,
                                   bv + b * g.cout, count[b], g.k, lanes,
                                   dxs + cg * rows * ld + at_pos, ld);
            }
          }
        }
      }
    }
    for (int64_t cg = 0; cg < groups; ++cg) {
      const int64_t live = std::min(cr, g.cin - cg * cr);
      for (int64_t c = 0; c < live; ++c) {
        float* d = dx + i * in_size + (cg * cr + c) * g.h * g.w;
        for (int64_t iy = 0; iy < g.h; ++iy) {
          const float* src =
              dxs + cg * rows * ld + (iy + g.pad) * ld + g.pad * cr + c;
          for (int64_t ix = 0; ix < g.w; ++ix) {
            d[iy * g.w + ix] = src[ix * cr];
          }
        }
      }
    }
  }
  // The tap-major dw sums into dw's [oc][c][tap] order.
  for (int64_t oc = 0; oc < g.cout && dw != nullptr; ++oc) {
    for (int64_t c = 0; c < g.cin; ++c) {
      const float* src = dwt + (oc * groups + c / cr) * g.taps * cr + c % cr;
      float* dst = dw + oc * g.patch + c * g.taps;
      for (int64_t t = 0; t < g.taps; ++t) dst[t] += src[t * cr];
    }
  }
}

}  // namespace
}  // namespace internal
}  // namespace rfed

#endif  // RFED_TENSOR_KERNELS_BLOCKED_H_
