#ifndef QPE_NN_SIMD_KERNELS_INL_H_
#define QPE_NN_SIMD_KERNELS_INL_H_

// Kernel bodies shared by every SIMD level, and MakeKernels (at the end),
// which binds them into a simd::Kernels table. Each instruction set
// provides a small ops policy (lane count, float load/store/broadcast,
// arithmetic, min/max, horizontal max, and the few integer and rounding
// steps of the int8 kernels) and builds its table with one MakeKernels
// call: nn/simd.cc for the scalar policy, simd_avx2.cc / simd_neon.cc for
// the vector ones. One body per kernel and one binding per entry keep the
// three tables in lockstep: a numerics fix lands in all of them at once.
// Adding a kernel is a field in simd.h, a body here and one line in
// MakeKernels.
//
// Exactness discipline (see simd.h): loops vectorize only across
// independent output lanes. Reductions (row sums, exp sums, dot products)
// keep the scalar ascending order: either along the row in a scalar chain,
// or with lanes across rows, where each lane carries one row's own chain
// (the attention forward's query tiles, the LayerNorm statistics). Max
// reductions may vectorize because float max is exactly associative and
// commutative on the finite inputs these kernels see. Policies must
// implement Mul/Add as separate operations (never a fused multiply-add),
// and the per-ISA translation units compile with -ffp-contract=off so the
// compiler cannot re-fuse them. Kernel bodies allocate nothing: every
// buffer is caller scratch, sized in simd.h, or a fixed-size stack tile
// (scripts/check_kernel_scratch.sh).
//
// The one sanctioned deviation is V::Exp. The scalar policy's Exp is
// std::exp — the scalar table therefore reproduces the pre-SIMD results
// bit for bit, as required — but the vector policies implement a
// polynomial expf (~2 ulp), so softmax outputs under a vector level agree
// with the scalar reference only within the epsilon contract. Profiling
// showed scalar expf dominating the attention softmax (~40% of an
// end-to-end forward on short plan sequences), and unlike the sum loops
// there is no ordering argument that would make a lane-parallel exp
// bit-exact anyway — exp is elementwise, the divergence is purely the
// polynomial. Every consumer of these kernels reaches them through the
// same dispatch table, so batched-vs-single bit-equality still holds at
// every level; only cross-level equality is epsilon-gated.

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "nn/simd.h"

namespace qpe::nn::simd {

// Every helper in this header has internal linkage, and kernel bodies
// call the C library's sqrtf/logf/expf/truncf/copysignf rather than their
// std:: wrappers. Each ISA translation unit compiles this header with its
// own -m flags; an inline function with external linkage that it emits
// (an unoptimized build emits every one it calls) is a weak symbol the
// linker may pick for portable code too, running vector instructions on
// a CPU that never reported them (scripts/check_isa_weak_symbols.sh).
// MaxOf and MinOf are std::max and std::min, definition for definition:
// the same result for every input, NaN and signed zeros included.
template <typename T>
static inline const T& MaxOf(const T& a, const T& b) {
  return a < b ? b : a;
}
template <typename T>
static inline const T& MinOf(const T& a, const T& b) {
  return b < a ? b : a;
}

// The reciprocal standard deviation of a LayerNorm row from its variance,
// through the same clamped sqrt/log/exp chain the composite forward used
// (Sqrt -> Log -> Scale(-1) -> Exp).
static inline float LayerNormRecip(float var) {
  constexpr float kLogEps = 1e-12f;
  const float inv_std = sqrtf(MaxOf(var + 1e-5f, 0.0f));
  const float log_std = logf(MaxOf(inv_std, kLogEps));
  return expf(MinOf(-log_std, 30.0f));
}

// Row statistics of the fused LayerNorm, replicating the original autograd
// chain's arithmetic exactly: mean and variance accumulate in ascending
// column order and scale by a precomputed 1/n, then LayerNormRecip. The
// reference for the layer_norm_rows forward (which runs these chains in
// lanes across rows, same bits) and the statistics the backward kernel
// and the backward closure in nn/tensor.cc recompute.
static inline void LayerNormRowStats(const float* __restrict row, int n,
                                     float invn, float* mean_out,
                                     float* recip_out) {
  float total = 0;
  for (int c = 0; c < n; ++c) total += row[c];
  const float mean = total * invn;
  float sq = 0;
  for (int c = 0; c < n; ++c) {
    const float d = row[c] - mean;
    sq += d * d;
  }
  *mean_out = mean;
  *recip_out = LayerNormRecip(sq * invn);
}

// --- Register tiles ------------------------------------------------------
//
// The vector bodies of the GEMM-shaped kernels — the packed forward
// linear, both matmul backwards and the attention backward's gradient
// phase — run in register tiles of R rows x NV vectors. Each step loads
// every B (or source) vector of the tile once and uses it for all R rows,
// and each output vector is zeroed or loaded once, accumulates in a
// register and is stored once. Per element the terms and their order are
// those of the width-1 loop; the loads and stores that disappear never
// round, so every element keeps its exact sequence of roundings.

// Calls f.template operator()<R>(t) for the row tiles [t, t + R) of
// [0, n): R = kRows, then one remainder tile of fewer rows.
template <int kRows, typename F>
inline void ForRowTiles(int n, F&& f) {
  static_assert(kRows >= 1 && kRows <= 4);
  int t = 0;
  for (; t + kRows <= n; t += kRows) f.template operator()<kRows>(t);
  const int rest = n - t;
  if constexpr (kRows > 3) {
    if (rest == 3) f.template operator()<3>(t);
  }
  if constexpr (kRows > 2) {
    if (rest == 2) f.template operator()<2>(t);
  }
  if constexpr (kRows > 1) {
    if (rest == 1) f.template operator()<1>(t);
  }
}

// Calls f.template operator()<W>(c) for the blocks [c, c + W) of [0, n):
// W = kRegisterBlock while it fits, then at most one block each of 8 and
// of 4, and one of 3, 2 or 1. 12 accumulators, an operand and a broadcast
// fit AVX2's 16 registers.
inline constexpr int kRegisterBlock = 12;
template <typename F>
inline void ForRegisterBlocks(int n, F&& f) {
  int c = 0;
  for (; c + kRegisterBlock <= n; c += kRegisterBlock) {
    f.template operator()<kRegisterBlock>(c);
  }
  if (c + 8 <= n) {
    f.template operator()<8>(c);
    c += 8;
  }
  if (c + 4 <= n) {
    f.template operator()<4>(c);
    c += 4;
  }
  ForRowTiles<3>(n - c, [&]<int W>(int t) { f.template operator()<W>(c + t); });
}

// One register tile of a from-zero GEMM: for R rows t of a (at stride
// lda) and NV column vectors from c,
//   acc[t][v] = sum_u a[t * lda + u] * b[u * ldb + c + v * L],
// each sum starting at +0 and taking one mul-then-add per u, ascending, in
// a register. Then epi(t, c + v * L, acc[t][v]) consumes every
// accumulator.
template <typename V, int R, int NV, typename Epi>
inline void DotTileT(const float* __restrict a, int lda,
                     const float* __restrict b, int ldb, int nu, int c,
                     Epi& epi) {
  constexpr int L = V::kLanes;
  typename V::Vec acc[R][NV];
  for (int t = 0; t < R; ++t) {
    for (int v = 0; v < NV; ++v) acc[t][v] = V::Broadcast(0.0f);
  }
  for (int u = 0; u < nu; ++u) {
    const float* __restrict brow = b + static_cast<size_t>(u) * ldb + c;
    typename V::Vec x[NV];
    for (int v = 0; v < NV; ++v) x[v] = V::Load(brow + v * L);
    for (int t = 0; t < R; ++t) {
      const auto at = V::Broadcast(a[static_cast<size_t>(t) * lda + u]);
      for (int v = 0; v < NV; ++v) {
        acc[t][v] = V::Add(acc[t][v], V::Mul(at, x[v]));
      }
    }
  }
  for (int t = 0; t < R; ++t) {
    for (int v = 0; v < NV; ++v) epi(t, c + v * L, acc[t][v]);
  }
}

// DotTileT over rows [0, m) of a and the whole vectors of columns
// [0, n): tiles of 3 rows (then one of 2 or 1) by 4, 2 or 1 vectors.
// 3 x 4 accumulators and 4 b vectors fill AVX2's 16 registers; a 4 x 4
// tile spills. epi(i, c, acc) receives the row i in [0, m). The columns
// past the last whole vector are left to the caller.
template <typename V, typename Epi>
inline void DotRowsT(const float* __restrict a, int lda,
                     const float* __restrict b, int ldb, int nu, int m, int n,
                     Epi&& epi) {
  constexpr int L = V::kLanes;
  ForRowTiles<3>(m, [&]<int R>(int i) {
    const float* __restrict ai = a + static_cast<size_t>(i) * lda;
    auto tile_epi = [&](int t, int c, typename V::Vec acc) {
      epi(i + t, c, acc);
    };
    int c = 0;
    for (; c + 4 * L <= n; c += 4 * L) {
      DotTileT<V, R, 4>(ai, lda, b, ldb, nu, c, tile_epi);
    }
    for (; c + 2 * L <= n; c += 2 * L) {
      DotTileT<V, R, 2>(ai, lda, b, ldb, nu, c, tile_epi);
    }
    for (; c + L <= n; c += L) {
      DotTileT<V, R, 1>(ai, lda, b, ldb, nu, c, tile_epi);
    }
  });
}

// One register tile of an accumulating GEMM: for R destination rows t (at
// stride ld) and NV column vectors starting at c0 (and c1),
//   dst[t][c] += coef[t * ct + u * cu] * src[u][c]   for u = 0 .. nu - 1,
// in that order. Every vector of the tile is loaded before any is stored,
// so an overlapping tail vector (c1 = ncols - L) starts from the prior
// contents of the lanes it shares with c0, never from a half-accumulated
// value; both copies of a shared lane receive the same terms and store
// the same bits.
template <typename V, int R, int NV>
inline void GradTileT(float* __restrict dst, const float* __restrict src,
                      int ld, const float* __restrict coef, int ct, int cu,
                      int nu, int c0, int c1) {
  const int cols[2] = {c0, c1};
  typename V::Vec acc[R][NV];
  for (int t = 0; t < R; ++t) {
    for (int v = 0; v < NV; ++v) {
      acc[t][v] = V::Load(dst + static_cast<size_t>(t) * ld + cols[v]);
    }
  }
  for (int u = 0; u < nu; ++u) {
    const float* __restrict srow = src + static_cast<size_t>(u) * ld;
    const float* __restrict w = coef + static_cast<size_t>(u) * cu;
    typename V::Vec x[NV];
    for (int v = 0; v < NV; ++v) x[v] = V::Load(srow + cols[v]);
    for (int t = 0; t < R; ++t) {
      const auto wt = V::Broadcast(w[t * ct]);
      for (int v = 0; v < NV; ++v) {
        acc[t][v] = V::Add(acc[t][v], V::Mul(wt, x[v]));
      }
    }
  }
  for (int t = 0; t < R; ++t) {
    for (int v = 0; v < NV; ++v) {
      V::Store(dst + static_cast<size_t>(t) * ld + cols[v], acc[t][v]);
    }
  }
}

// dst rows [0, nrows), columns [0, ncols):
//   dst[t][c] += coef[t * ct + u * cu] * src[u][c]   for u ascending,
// in GradTileT tiles of up to 4 rows. Column vectors go in pairs, an odd
// one out first on its own, so the overlapping tail vector (ncols not a
// multiple of L) shares a tile with the last whole vector — the only one
// it overlaps. Below one vector (ncols < L) each element sums in a scalar
// register, in the same order. 4 rows x 2 vectors of accumulators, 2
// source vectors and a broadcast fit AVX2's 16 registers.
template <typename V>
inline void GradRowsT(float* __restrict dst, const float* __restrict src,
                      int ld, const float* __restrict coef, int ct, int cu,
                      int nrows, int nu, int ncols) {
  constexpr int L = V::kLanes;
  if (ncols < L) {
    for (int t = 0; t < nrows; ++t) {
      float* __restrict drow = dst + static_cast<size_t>(t) * ld;
      const float* __restrict w = coef + static_cast<size_t>(t) * ct;
      for (int c = 0; c < ncols; ++c) {
        float acc = drow[c];
        for (int u = 0; u < nu; ++u) {
          acc += w[static_cast<size_t>(u) * cu] *
                 src[static_cast<size_t>(u) * ld + c];
        }
        drow[c] = acc;
      }
    }
    return;
  }
  const int nfull = ncols / L;
  const int nvec = nfull + (ncols % L != 0 ? 1 : 0);
  auto col = [&](int v) { return v < nfull ? v * L : ncols - L; };
  ForRowTiles<4>(nrows, [&]<int R>(int t) {
    float* __restrict d = dst + static_cast<size_t>(t) * ld;
    const float* __restrict w = coef + static_cast<size_t>(t) * ct;
    int v = 0;
    if (nvec % 2 != 0) {
      GradTileT<V, R, 1>(d, src, ld, w, ct, cu, nu, col(0), 0);
      v = 1;
    }
    for (; v < nvec; v += 2) {
      GradTileT<V, R, 2>(d, src, ld, w, ct, cu, nu, col(v), col(v + 1));
    }
  });
}


// The one forward linear: out = act(A * B + bias) with A [m, k], B [k, n],
// bias [n] or null (no bias add), act = ReLU when `relu` is nonzero,
// identity otherwise. The packed pipeline's GEMM sites and the op chain's
// MatMul, LinearRowBias and LinearRowBiasRelu all run it. Per output
// element this is the seed saxpy loop's exact sequence (MatMulReference):
// +0, the ascending-k mul/add pairs, then one bias add and the ReLU's
// `> 0` clamp. The vector body keeps the zero in a register and runs the
// bias/ReLU in the GEMM epilogue, so no zero-fill or bias pass touches the
// output: DotRowsT tiles (3 rows share each B vector load), with the
// columns past the last whole vector as scalar dots.
//
// Unlike the seed loop, the vector path has no aval == 0 skip: on the
// ReLU-sparse ff2 input (~50% random zeros) the data-dependent branch
// mispredicts constantly and measured 3.5x slower than just doing the
// multiplies. Including the zero products is bit-identical to skipping
// them because the accumulator starts at +0 and a round-to-nearest sum
// that starts at +0 can never become -0 (exact cancellation rounds to +0,
// and adding a zero of either sign to +0 yields +0) — so every aval == 0
// step adds a +/-0 product to a non-negative-zero accumulator, which never
// changes a bit. The argument assumes finite B: 0 * inf is NaN where the
// skip adds nothing, so non-finite weights (a diverged model) may give
// different NaN placement across levels. The width-1 policy keeps the
// seed's saxpy shape, skip included, one output row at a time.
template <typename V>
void LinearBiasActT(const float* __restrict av, const float* __restrict bv,
                    const float* __restrict biasv, float* __restrict ov,
                    int m, int k, int n, int relu) {
  constexpr int L = V::kLanes;
  if constexpr (L == 1) {
    for (int i = 0; i < m; ++i) {
      const float* __restrict arow = av + static_cast<size_t>(i) * k;
      float* __restrict orow = ov + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) orow[j] = 0.0f;
      for (int p = 0; p < k; ++p) {
        const float aval = arow[p];
        if (aval == 0.0f) continue;
        const float* __restrict brow = bv + static_cast<size_t>(p) * n;
        for (int j = 0; j < n; ++j) orow[j] += aval * brow[j];
      }
      if (biasv != nullptr) {
        for (int j = 0; j < n; ++j) orow[j] += biasv[j];
      }
      if (relu != 0) {
        for (int j = 0; j < n; ++j) orow[j] = orow[j] > 0 ? orow[j] : 0.0f;
      }
    }
    return;
  }
  // One instantiation of the tiles with the bias add and one without, so
  // the null test stays out of the tile loops.
  const auto zero = V::Broadcast(0.0f);
  auto tiles = [&]<bool kBias>() {
    DotRowsT<V>(av, k, bv, n, k, m, n,
                [&](int i, int j, typename V::Vec acc) {
                  if constexpr (kBias) acc = V::Add(acc, V::Load(biasv + j));
                  if (relu != 0) acc = V::Max(acc, zero);
                  V::Store(ov + static_cast<size_t>(i) * n + j, acc);
                });
  };
  if (biasv != nullptr) {
    tiles.template operator()<true>();
  } else {
    tiles.template operator()<false>();
  }
  for (int i = 0; i < m; ++i) {
    const float* __restrict arow = av + static_cast<size_t>(i) * k;
    float* __restrict orow = ov + static_cast<size_t>(i) * n;
    for (int j = (n / L) * L; j < n; ++j) {
      float s = 0.0f;
      for (int p = 0; p < k; ++p) {
        s += arow[p] * bv[static_cast<size_t>(p) * n + j];
      }
      if (biasv != nullptr) s += biasv[j];
      orow[j] = (relu != 0 && !(s > 0)) ? 0.0f : s;
    }
  }
}

// dst[i] += src[i]: the residual-stream add of the packed pipeline.
// Elementwise, so vector lanes are bit-identical to the scalar loop.
template <typename V>
void AddRowsT(float* __restrict dst, const float* __restrict src, size_t n) {
  constexpr int L = V::kLanes;
  const size_t nv = (n / L) * L;
  size_t i = 0;
  for (; i < nv; i += L) {
    V::Store(dst + i, V::Add(V::Load(dst + i), V::Load(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

// The LayerNorm normalize pass over one row: y = ((x - mean) * recip) *
// gamma + beta, elementwise, so it vectorizes along the row
// bit-identically.
template <typename V>
inline void NormalizeRowT(const float* __restrict xrow,
                          const float* __restrict gv,
                          const float* __restrict bv, float* __restrict orow,
                          int n, float mean, float recip) {
  constexpr int L = V::kLanes;
  const int nv = (n / L) * L;
  const auto vmean = V::Broadcast(mean);
  const auto vrecip = V::Broadcast(recip);
  int c = 0;
  for (; c < nv; c += L) {
    const auto xhat = V::Mul(V::Sub(V::Load(xrow + c), vmean), vrecip);
    V::Store(orow + c, V::Add(V::Mul(xhat, V::Load(gv + c)), V::Load(bv + c)));
  }
  for (; c < n; ++c) {
    orow[c] = ((xrow[c] - mean) * recip) * gv[c] + bv[c];
  }
}

// Row-wise LayerNorm. The statistics run in lanes across rows: a tile of
// L rows is transposed, kLnChunk columns at a time, into a stack block
// xt [column][L], and LayerNormRowStats' mean and variance chains advance
// as one vector per column, lane r carrying row r's chain — the same adds
// in the same ascending column order, so each lane holds that row's scalar
// bits, with L chains in flight instead of one. The last tile repeats its
// last row in the spare lanes. At width 1 the row itself is that layout.
// Then per row LayerNormRecip (scalar libm calls) and NormalizeRowT.
template <typename V>
void LayerNormRowsT(const float* __restrict xv, const float* __restrict gv,
                    const float* __restrict bv, float* __restrict ov, int m,
                    int n, float invn) {
  constexpr int L = V::kLanes;
  constexpr int kLnChunk = 64;
  const auto zero = V::Broadcast(0.0f);
  const auto vinvn = V::Broadcast(invn);
  float xt[kLnChunk * L];
  float lane_mean[L];
  float lane_var[L];
  for (int r0 = 0; r0 < m; r0 += L) {
    const int nr = MinOf(L, m - r0);
    // Columns [c0, c1) of the tile's rows, [c - c0][L].
    auto columns = [&](int c0, int c1) -> const float* {
      if constexpr (L == 1) return xv + static_cast<size_t>(r0) * n + c0;
      for (int r = 0; r < L; ++r) {
        const float* __restrict xrow =
            xv + static_cast<size_t>(r0 + MinOf(r, nr - 1)) * n;
        for (int c = c0; c < c1; ++c) xt[(c - c0) * L + r] = xrow[c];
      }
      return xt;
    };
    const float* cols = nullptr;
    auto total = zero;
    for (int c0 = 0; c0 < n; c0 += kLnChunk) {
      const int c1 = MinOf(n, c0 + kLnChunk);
      cols = columns(c0, c1);
      for (int c = c0; c < c1; ++c) {
        total = V::Add(total, V::Load(cols + (c - c0) * L));
      }
    }
    const auto vmean = V::Mul(total, vinvn);
    auto sq = zero;
    for (int c0 = 0; c0 < n; c0 += kLnChunk) {
      const int c1 = MinOf(n, c0 + kLnChunk);
      // A row of at most kLnChunk columns is one chunk, still at cols.
      if (n > kLnChunk) cols = columns(c0, c1);
      for (int c = c0; c < c1; ++c) {
        const auto d = V::Sub(V::Load(cols + (c - c0) * L), vmean);
        sq = V::Add(sq, V::Mul(d, d));
      }
    }
    V::Store(lane_mean, vmean);
    V::Store(lane_var, V::Mul(sq, vinvn));
    for (int t = 0; t < nr; ++t) {
      const size_t r = static_cast<size_t>(r0 + t);
      NormalizeRowT<V>(xv + r * n, gv, bv, ov + r * n, n, lane_mean[t],
                       LayerNormRecip(lane_var[t]));
    }
  }
}

// Softmax numerator in place over prow[0, len): the row max (vectorized —
// max is exact), then prow[j] = exp(prow[j] - max), V::Exp over whole
// vectors and expf on the tail.
template <typename V>
inline void SoftmaxExpRowT(float* __restrict prow, int len) {
  constexpr int L = V::kLanes;
  const int lenv = (len / L) * L;
  float max_v = prow[0];
  int j = 1;
  if (len >= L) {
    auto vmax = V::Load(prow);
    for (j = L; j + L <= len; j += L) vmax = V::Max(vmax, V::Load(prow + j));
    max_v = V::HMax(vmax);
  }
  for (; j < len; ++j) max_v = MaxOf(max_v, prow[j]);
  const auto vm = V::Broadcast(max_v);
  for (j = 0; j < lenv; j += L) {
    V::Store(prow + j, V::Exp(V::Sub(V::Load(prow + j), vm)));
  }
  for (; j < len; ++j) prow[j] = expf(prow[j] - max_v);
}

// prow[j] /= sum over prow[0, len): the softmax normalization.
template <typename V>
inline void SoftmaxDivRowT(float* __restrict prow, int len, float sum) {
  constexpr int L = V::kLanes;
  const int lenv = (len / L) * L;
  const auto vsum = V::Broadcast(sum);
  int j = 0;
  for (; j < lenv; j += L) {
    V::Store(prow + j, V::Div(V::Load(prow + j), vsum));
  }
  for (; j < len; ++j) prow[j] /= sum;
}

// Row softmax in place over prow[0, len): SoftmaxExpRowT, the normalizing
// sum scalar ascending, then the divide. Every attention kernel's
// probabilities go through this arithmetic, so the forwards and the
// backwards' recomputes agree bit for bit at each level; at width 1 it is
// the scalar reference loop.
template <typename V>
inline void SoftmaxRowT(float* __restrict prow, int len) {
  SoftmaxExpRowT<V>(prow, len);
  float sum = 0;
  for (int j = 0; j < len; ++j) sum += prow[j];
  SoftmaxDivRowT<V>(prow, len, sum);
}

// Fused embedding gather + positional add (see simd.h). Three contiguous
// segment copies fused with the positional add into one pass per row:
// out[c] = e[c] + pos[c], elementwise in ascending order, so every level
// produces the same bits as the copy-then-add the op chain did.
template <typename V>
void EmbedGatherAddT(const float* __restrict e1, const float* __restrict e2,
                     const float* __restrict e3, const float* __restrict pos,
                     const int* __restrict ids1, const int* __restrict ids2,
                     const int* __restrict ids3,
                     const int* __restrict positions, float* __restrict out,
                     int rows, int d1, int d2, int d3) {
  constexpr int L = V::kLanes;
  const int d = d1 + d2 + d3;
  auto seg = [](const float* __restrict src, const float* __restrict add,
                float* __restrict dst, int n) {
    int c = 0;
    for (; c + L <= n; c += L) {
      V::Store(dst + c, V::Add(V::Load(src + c), V::Load(add + c)));
    }
    for (; c < n; ++c) dst[c] = src[c] + add[c];
  };
  for (int r = 0; r < rows; ++r) {
    float* __restrict row = out + static_cast<size_t>(r) * d;
    const float* __restrict prow =
        pos + static_cast<size_t>(positions[r]) * d;
    seg(e1 + static_cast<size_t>(ids1[r]) * d1, prow, row, d1);
    seg(e2 + static_cast<size_t>(ids2[r]) * d2, prow + d1, row + d1, d2);
    seg(e3 + static_cast<size_t>(ids3[r]) * d3, prow + d1 + d2,
        row + d1 + d2, d3);
  }
}

// Vector body of attention_forward_blocked: lanes across queries. Each
// (sequence, head) runs its queries in tiles of L, lane r holding query
// i + r; the last tile repeats its last query in the spare lanes and
// stores only its real rows. Per lane the arithmetic is the row code's
// (the width-1 and CLS body of AttentionForwardBlockedT below), step for
// step:
//  - scores: S^T[j][r] = (sum over ascending c of q[r][c] * k[c][j], from
//    +0) * scale, in ForRegisterBlocks blocks of keys that share each q^T
//    vector. q^T, the tile's queries transposed [c][L], is gathered onto
//    the stack kQtCols head columns at a time; a longer head carries its
//    partial sums through S^T between column blocks, which never rounds.
//  - max: per lane, folded over the key blocks. Max is exact, so the fold
//    order changes no finite maximum but the sign of a zero one, and
//    x - (+0) and x - (-0) differ only for a zero x, whose exp is 1 either
//    way. A NaN score (a diverged model) may select another maximum than
//    the row code's vector-then-scalar fold: the finite-input posture of
//    every vector max reduction here.
//  - exp: V::Exp for keys below floor(len / L) * L and expf beyond, the
//    row code's split (it depends on len alone), and the normalizing sum
//    as one vector add per key in ascending j, so lane r is row r's scalar
//    ascending chain.
//  - context: O^T[c][r] = sum over ascending j of (e[j][r] / sum[r]) *
//    v[j][c], from +0, in ForRegisterBlocks column blocks (head_dim 12
//    is one); the first block divides, and writes the probabilities back
//    when more blocks follow. Then a transposed store of the real rows.
// The row code pays a horizontal max, a scalar exp-sum chain and scalar
// tail expf calls per query, and computes 16 context lanes to keep 12 at
// head_dim 12; here every lane carries a query.
//
// S^T takes len * L floats: `probs` (max(lengths)^2 floats, simd.h) holds
// it for len >= L, and a stack tile of L * L floats for shorter sequences.
template <typename V>
void AttentionQueryTilesT(const float* __restrict qv,
                          const float* __restrict kbt,
                          const float* __restrict vb, float* __restrict ov,
                          const int* __restrict offsets,
                          const int* __restrict lengths, int num_seqs,
                          int num_heads, int total_rows, int dim, float scale,
                          float* __restrict probs) {
  using Vec = typename V::Vec;
  constexpr int L = V::kLanes;
  constexpr int kQtCols = 16;
  const int dh = dim / num_heads;
  const Vec zero = V::Broadcast(0.0f);
  const Vec vs = V::Broadcast(scale);
  float qt[kQtCols * L];
  float short_tile[L * L];
  float lane_max[L];
  float ot[kRegisterBlock * L];
  for (int s = 0; s < num_seqs; ++s) {
    const int off = offsets[s];
    const int len = lengths[s];
    const int lenv = (len / L) * L;
    float* __restrict st = len < L ? short_tile : probs;
    for (int h = 0; h < num_heads; ++h) {
      const int col0 = h * dh;
      const float* __restrict ktb =
          kbt + (static_cast<size_t>(h) * dh) * total_rows + off;
      const float* __restrict vbb =
          vb + (static_cast<size_t>(h) * total_rows + off) * dh;
      for (int i = 0; i < len; i += L) {
        const int nr = MinOf(L, len - i);
        const float* __restrict q0 =
            qv + static_cast<size_t>(off + i) * dim + col0;
        float* __restrict o0 = ov + static_cast<size_t>(off + i) * dim + col0;
        // --- Scores S^T and the per-lane max ---------------------------
        Vec vmax = V::Broadcast(-INFINITY);
        for (int c0 = 0; c0 < dh; c0 += kQtCols) {
          const int c1 = MinOf(dh, c0 + kQtCols);
          for (int r = 0; r < L; ++r) {
            const float* __restrict qrow =
                q0 + static_cast<size_t>(MinOf(r, nr - 1)) * dim;
            for (int c = c0; c < c1; ++c) qt[(c - c0) * L + r] = qrow[c];
          }
          auto key_block = [&]<int NB>(int j) {
            Vec acc[NB];
            for (int b = 0; b < NB; ++b) {
              acc[b] = c0 == 0 ? zero
                               : V::Load(st + static_cast<size_t>(j + b) * L);
            }
            for (int c = c0; c < c1; ++c) {
              const Vec qc = V::Load(qt + (c - c0) * L);
              const float* __restrict krow =
                  ktb + static_cast<size_t>(c) * total_rows + j;
              for (int b = 0; b < NB; ++b) {
                acc[b] = V::Add(acc[b], V::Mul(qc, V::Broadcast(krow[b])));
              }
            }
            if (c1 == dh) {
              for (int b = 0; b < NB; ++b) acc[b] = V::Mul(acc[b], vs);
              Vec m = acc[0];
              for (int b = 1; b < NB; ++b) m = V::Max(m, acc[b]);
              vmax = V::Max(vmax, m);
            }
            for (int b = 0; b < NB; ++b) {
              V::Store(st + static_cast<size_t>(j + b) * L, acc[b]);
            }
          };
          ForRegisterBlocks(len, key_block);
        }
        // --- exp(S^T - max) and the normalizing sums --------------------
        V::Store(lane_max, vmax);
        Vec vsum = zero;
        int j = 0;
        for (; j < lenv; ++j) {
          float* __restrict srow = st + static_cast<size_t>(j) * L;
          const Vec e = V::Exp(V::Sub(V::Load(srow), vmax));
          V::Store(srow, e);
          vsum = V::Add(vsum, e);
        }
        for (; j < len; ++j) {
          float* __restrict srow = st + static_cast<size_t>(j) * L;
          for (int r = 0; r < nr; ++r) srow[r] = expf(srow[r] - lane_max[r]);
          vsum = V::Add(vsum, V::Load(srow));
        }
        // --- Context O^T, divide folded in, transposed store ------------
        auto ctx_block = [&]<int NC, bool kDivide>(int c0) {
          const bool more = c0 + NC < dh;
          Vec acc[NC];
          for (int n = 0; n < NC; ++n) acc[n] = zero;
          for (int jj = 0; jj < len; ++jj) {
            float* __restrict srow = st + static_cast<size_t>(jj) * L;
            Vec p = V::Load(srow);
            if constexpr (kDivide) {
              p = V::Div(p, vsum);
              if (more) V::Store(srow, p);
            }
            const float* __restrict vrow =
                vbb + static_cast<size_t>(jj) * dh + c0;
            for (int n = 0; n < NC; ++n) {
              acc[n] = V::Add(acc[n], V::Mul(p, V::Broadcast(vrow[n])));
            }
          }
          for (int n = 0; n < NC; ++n) V::Store(ot + n * L, acc[n]);
          for (int r = 0; r < nr; ++r) {
            float* __restrict orow = o0 + static_cast<size_t>(r) * dim + c0;
            for (int n = 0; n < NC; ++n) orow[n] = ot[n * L + r];
          }
        };
        ForRegisterBlocks(dh, [&]<int NC>(int c0) {
          if (c0 == 0) {
            ctx_block.template operator()<NC, true>(c0);
          } else {
            ctx_block.template operator()<NC, false>(c0);
          }
        });
      }
    }
  }
}

// The attention forward (see simd.h for the layouts). The caller
// transposes K once into kbt [head][head_dim][rows] and blocks V into vb
// [head][rows][head_dim], so the score loops stream kbt rows and the
// context loops read contiguous head_dim lanes of vb. Vector levels run
// the query tiles of AttentionQueryTilesT; the body below is the row code:
// the width-1 kernel, whose scores, softmax and context are the
// MatMul / SoftmaxRows / MatMul chain's loops element for element, and
// the CLS instantiation.
//
// kClsOnly instantiates attention_cls_blocked: one query per sequence,
// its CLS token, with q and out compact [num_seqs, dim]. That query runs
// the row code's arithmetic — scores in vectors along the keys (an
// overlapping tail vector recomputes the same dots), SoftmaxRowT, the
// context in vectors along head_dim — which per element is the query
// tiles' arithmetic, so its output row equals row offsets[s] of the full
// kernel bit for bit.
template <typename V, bool kClsOnly = false>
void AttentionForwardBlockedT(const float* __restrict qv,
                              const float* __restrict kbt,
                              const float* __restrict vb,
                              float* __restrict ov,
                              const int* __restrict offsets,
                              const int* __restrict lengths, int num_seqs,
                              int num_heads, int total_rows, int dim,
                              float scale, float* __restrict probs) {
  constexpr int L = V::kLanes;
  if constexpr (L > 1 && !kClsOnly) {
    AttentionQueryTilesT<V>(qv, kbt, vb, ov, offsets, lengths, num_seqs,
                            num_heads, total_rows, dim, scale, probs);
    return;
  }
  const int dh = dim / num_heads;
  for (int s = 0; s < num_seqs; ++s) {
    const int off = offsets[s];
    const int len = lengths[s];
    // This sequence's queries and the q/out row of the first: every token,
    // at rows off .. off + len - 1 of the packed layout, or the CLS token
    // alone, at row s of a compact [num_seqs, dim] q/out.
    const int nq = kClsOnly ? 1 : len;
    const size_t row0 = kClsOnly ? static_cast<size_t>(s)
                                 : static_cast<size_t>(off);
    for (int h = 0; h < num_heads; ++h) {
      const int col0 = h * dh;
      // This head's key block, transposed: row c holds k[:, col0 + c] with
      // stride total_rows; the sequence's columns start at offset `off`.
      const float* __restrict ktb =
          kbt + (static_cast<size_t>(h) * dh) * total_rows + off;
      // This head's value block: row j of the sequence is dh contiguous
      // floats.
      const float* __restrict vbb =
          vb + (static_cast<size_t>(h) * total_rows + off) * dh;
      // --- Phase 1: scaled score rows -----------------------------------
      if constexpr (L == 1) {
        for (int i = 0; i < nq; ++i) {
          const float* __restrict qrow = qv + (row0 + i) * dim + col0;
          float* __restrict prow = probs + static_cast<size_t>(i) * len;
          for (int j = 0; j < len; ++j) prow[j] = 0.0f;
          for (int c = 0; c < dh; ++c) {
            const float qc = qrow[c];
            const float* __restrict ktrow =
                ktb + static_cast<size_t>(c) * total_rows;
            for (int j = 0; j < len; ++j) prow[j] += qc * ktrow[j];
          }
          for (int j = 0; j < len; ++j) prow[j] *= scale;
        }
      } else {
        const auto zero = V::Broadcast(0.0f);
        const auto vs = V::Broadcast(scale);
        for (int i = 0; i < nq; ++i) {
          const float* __restrict qrow = qv + (row0 + i) * dim + col0;
          float* __restrict prow = probs + static_cast<size_t>(i) * len;
          int j = 0;
          for (; j + L <= len; j += L) {
            auto a0 = zero;
            for (int c = 0; c < dh; ++c) {
              a0 = V::Add(a0, V::Mul(V::Broadcast(qrow[c]),
                                     V::Load(ktb + static_cast<size_t>(c) *
                                                       total_rows +
                                             j)));
            }
            V::Store(prow + j, V::Mul(a0, vs));
          }
          if (j < len && len >= L) {
            // Overlapping tail vector: recompute the last full vector of
            // scores ending at `len`. Each overlapped element is the same
            // ascending-c dot as before, so the second store writes the
            // same bits — cheaper than a scalar tail and bit-identical.
            const int jt = len - L;
            auto a0 = zero;
            for (int c = 0; c < dh; ++c) {
              a0 = V::Add(a0, V::Mul(V::Broadcast(qrow[c]),
                                     V::Load(ktb + static_cast<size_t>(c) *
                                                       total_rows +
                                             jt)));
            }
            V::Store(prow + jt, V::Mul(a0, vs));
          } else {
            for (; j < len; ++j) {
              float acc = 0;
              for (int c = 0; c < dh; ++c) {
                acc += qrow[c] * ktb[static_cast<size_t>(c) * total_rows + j];
              }
              prow[j] = acc * scale;
            }
          }
        }
      }
      // --- Phase 2: row softmax ----------------------------------------
      for (int i = 0; i < nq; ++i) {
        SoftmaxRowT<V>(probs + static_cast<size_t>(i) * len, len);
      }
      // --- Phase 3: context = probs * vh over the contiguous rows of
      // this head's value block; per element accumulates ascending j
      // from +0 --------------------------------------------------------
      if constexpr (L == 1) {
        for (int i = 0; i < nq; ++i) {
          const float* __restrict prow = probs + static_cast<size_t>(i) * len;
          float* __restrict orow = ov + (row0 + i) * dim + col0;
          for (int c = 0; c < dh; ++c) orow[c] = 0.0f;
          for (int j = 0; j < len; ++j) {
            const float p = prow[j];
            const float* __restrict vrow = vbb + static_cast<size_t>(j) * dh;
            for (int c = 0; c < dh; ++c) orow[c] += p * vrow[c];
          }
        }
      } else {
        const int dhv = (dh / L) * L;
        const auto zero = V::Broadcast(0.0f);
        for (int i = 0; i < nq; ++i) {
          const float* __restrict prow = probs + static_cast<size_t>(i) * len;
          float* __restrict orow = ov + (row0 + i) * dim + col0;
          int c = 0;
          for (; c < dhv; c += L) {
            auto a0 = zero;
            for (int j = 0; j < len; ++j) {
              a0 = V::Add(a0, V::Mul(V::Broadcast(prow[j]),
                                     V::Load(vbb + static_cast<size_t>(j) * dh +
                                             c)));
            }
            V::Store(orow + c, a0);
          }
          if (c < dh && dh >= L) {
            // Overlapping tail vector over the last L head columns: the
            // overlapped lanes redo the same ascending-j sums and store
            // the same bits (see the score tail above).
            const int ct = dh - L;
            auto a0 = zero;
            for (int j = 0; j < len; ++j) {
              a0 = V::Add(a0, V::Mul(V::Broadcast(prow[j]),
                                     V::Load(vbb + static_cast<size_t>(j) * dh +
                                             ct)));
            }
            V::Store(orow + ct, a0);
          } else {
            for (; c < dh; ++c) {
              float acc = 0;
              for (int j = 0; j < len; ++j) {
                acc += prow[j] * vbb[static_cast<size_t>(j) * dh + c];
              }
              orow[c] = acc;
            }
          }
        }
      }
    }
  }
}

// --- Backward kernel bodies ------------------------------------------
//
// Width-1 instantiations reproduce the pre-SIMD backward closures of
// nn/tensor.cc statement for statement (the scalar table is the training
// bit-exactness reference, just as for the forwards). The vector paths
// follow the same discipline as the forwards: lanes run across
// independent gradient elements, never across a reduction, and every
// reduction keeps its scalar ascending order inside each lane. Gradient
// buffers have one extra invariant the vector paths lean on: a grad
// buffer starts zero-filled (+0) and is only ever accumulated into, and
// under round-to-nearest a sum can only produce -0 when both operands
// are -0 — so by induction a grad element is never -0, and adding a +/-0
// term to it leaves its bits unchanged. That is what makes the masked
// adds in BiasActBackwardT and the skip-free tiles of MatMulBackwardBT
// bit-safe.

// dA[i0:i1, :] += dOut[i0:i1, :] * B^T, reading B transposed: bt [n, k]
// (the caller transposes once, before splitting rows across threads).
// The seed closure computes each dA element as one complete ascending-j
// dot in a register, added to dA once. The vector path runs DotRowsT
// tiles over bt's rows, as LinearBiasActT does over B's columns, with
// lanes across the p (dA column) dimension, 3 dA rows sharing each bt
// vector load: each lane's dot still starts at zero and accumulates
// ascending j, followed by the one final add, so every level produces the
// seed's bits. The seed loop over bt's columns is the width-1 body and
// the vector body's tail past the last whole vector.
template <typename V>
void MatMulBackwardAT(const float* __restrict og, const float* __restrict btv,
                      float* __restrict ag, int i0, int i1, int k, int n) {
  constexpr int L = V::kLanes;
  // Columns from p_tail on take the seed loop: all of them at width 1.
  int p_tail = 0;
  if constexpr (L > 1) {
    float* __restrict ab = ag + static_cast<size_t>(i0) * k;
    DotRowsT<V>(og + static_cast<size_t>(i0) * n, n, btv, k, n, i1 - i0, k,
                [&](int i, int p, typename V::Vec dot) {
                  float* __restrict a = ab + static_cast<size_t>(i) * k + p;
                  V::Store(a, V::Add(V::Load(a), dot));
                });
    p_tail = (k / L) * L;
  }
  for (int i = i0; i < i1; ++i) {
    const float* __restrict orow = og + static_cast<size_t>(i) * n;
    float* __restrict arow = ag + static_cast<size_t>(i) * k;
    for (int p = p_tail; p < k; ++p) {
      float dot = 0.0f;
      for (int j = 0; j < n; ++j) {
        dot += orow[j] * btv[static_cast<size_t>(j) * k + p];
      }
      arow[p] += dot;
    }
  }
}

// dB[p0:p1, :] += (A^T * dOut)[p0:p1, :]: per output element the terms
// A[i, p] * dOut[i, j] in ascending i, wherever the p range is split. The
// width-1 body is the seed's rank-1 row updates, with its aval == 0 skip
// (ReLU inputs are often sparse). The vector body is GradRowsT with A's
// columns as the coefficients: a tile of 4 dB rows x 2 vectors is loaded
// once, takes every input row's term in ascending i in registers and is
// stored once — where a rank-1 update loads, adds and stores a whole dB
// row per (i, p) behind a data-dependent branch. It has no aval == 0
// skip: a dB element is never -0 (the note above), so adding a +/-0
// product leaves its bits unchanged, as in BiasActBackwardT. The argument
// assumes a finite dOut: 0 * inf is NaN where the skip adds nothing, so a
// diverged step with a non-finite gradient may place its NaNs differently
// across levels.
template <typename V>
void MatMulBackwardBT(const float* __restrict av, const float* __restrict og,
                      float* __restrict bg, int p0, int p1, int m, int k,
                      int n) {
  constexpr int L = V::kLanes;
  if constexpr (L == 1) {
    for (int i = 0; i < m; ++i) {
      const float* __restrict arow = av + static_cast<size_t>(i) * k;
      const float* __restrict orow = og + static_cast<size_t>(i) * n;
      for (int p = p0; p < p1; ++p) {
        const float aval = arow[p];
        if (aval == 0.0f) continue;
        float* __restrict brow = bg + static_cast<size_t>(p) * n;
        for (int j = 0; j < n; ++j) brow[j] += aval * orow[j];
      }
    }
  } else {
    GradRowsT<V>(bg + static_cast<size_t>(p0) * n, og, n, av + p0, /*ct=*/1,
                 /*cu=*/k, p1 - p0, m, n);
  }
}

// Backward of a bias add and ReLU, gated on the forward *output* (ov > 0
// iff the pre-activation was > 0). The vector path turns the branch into a
// mask: gated lanes contribute And(og, 0) == +0, and adding +/-0 to a grad
// element never changes its bits (grad buffers are never -0, see the
// header note above) — so the masked add is bit-identical to the seed's
// skip. bg accumulates rows in ascending order per column either way.
// NaN forward outputs (already diverged training) gate differently
// between the quiet vector compare and the scalar `<= 0`, matching the
// forward kernels' NaN posture.
template <typename V>
void BiasActBackwardT(const float* __restrict ov, const float* __restrict og,
                      float* __restrict ag, float* __restrict bg, int m,
                      int n) {
  constexpr int L = V::kLanes;
  if constexpr (L == 1) {
    for (int r = 0; r < m; ++r) {
      const size_t base = static_cast<size_t>(r) * n;
      for (int c = 0; c < n; ++c) {
        if (ov[base + c] <= 0) continue;
        const float g = og[base + c];
        if (ag) ag[base + c] += g;
        if (bg) bg[c] += g;
      }
    }
  } else {
    const int nv = (n / L) * L;
    for (int r = 0; r < m; ++r) {
      const float* __restrict ovr = ov + static_cast<size_t>(r) * n;
      const float* __restrict ogr = og + static_cast<size_t>(r) * n;
      float* __restrict agr = ag ? ag + static_cast<size_t>(r) * n : nullptr;
      int c = 0;
      for (; c < nv; c += L) {
        const auto g = V::And(V::Load(ogr + c), V::GtZero(V::Load(ovr + c)));
        if (agr) V::Store(agr + c, V::Add(V::Load(agr + c), g));
        if (bg) V::Store(bg + c, V::Add(V::Load(bg + c), g));
      }
      for (; c < n; ++c) {
        if (ovr[c] <= 0) continue;
        const float g = ogr[c];
        if (agr) agr[c] += g;
        if (bg) bg[c] += g;
      }
    }
  }
}

// Backward of layer_norm_rows. Row statistics recompute through the
// shared LayerNormRowStats (same bits as the forward), and the m1/m2
// reductions stay scalar ascending at every level. The gamma/beta and
// input-gradient passes are elementwise: hoisting them out of the
// reduction loop (vector levels) touches each gg[c]/bg[c] element once
// per row in the same ascending row order, so their bits are unchanged,
// and the xg expression keeps the seed's exact operation tree
// recip * ((dy * gamma - m1) - xhat * m2).
template <typename V>
void LayerNormRowsBackwardT(const float* __restrict xv,
                            const float* __restrict gv,
                            const float* __restrict og, float* __restrict xg,
                            float* __restrict gg, float* __restrict bg, int m,
                            int n, float invn) {
  constexpr int L = V::kLanes;
  for (int r = 0; r < m; ++r) {
    const float* __restrict xrow = xv + static_cast<size_t>(r) * n;
    const float* __restrict grow = og + static_cast<size_t>(r) * n;
    float mean, recip;
    LayerNormRowStats(xrow, n, invn, &mean, &recip);
    float m1 = 0, m2 = 0;
    if constexpr (L == 1) {
      for (int c = 0; c < n; ++c) {
        const float xhat = (xrow[c] - mean) * recip;
        const float dxhat = grow[c] * gv[c];
        m1 += dxhat;
        m2 += dxhat * xhat;
        if (gg) gg[c] += grow[c] * xhat;
        if (bg) bg[c] += grow[c];
      }
    } else {
      for (int c = 0; c < n; ++c) {
        const float xhat = (xrow[c] - mean) * recip;
        const float dxhat = grow[c] * gv[c];
        m1 += dxhat;
        m2 += dxhat * xhat;
      }
      const int nv = (n / L) * L;
      const auto vmean = V::Broadcast(mean);
      const auto vrecip = V::Broadcast(recip);
      int c = 0;
      for (; c < nv; c += L) {
        const auto g = V::Load(grow + c);
        if (gg) {
          const auto xhat =
              V::Mul(V::Sub(V::Load(xrow + c), vmean), vrecip);
          V::Store(gg + c, V::Add(V::Load(gg + c), V::Mul(g, xhat)));
        }
        if (bg) V::Store(bg + c, V::Add(V::Load(bg + c), g));
      }
      for (; c < n; ++c) {
        const float xhat = (xrow[c] - mean) * recip;
        if (gg) gg[c] += grow[c] * xhat;
        if (bg) bg[c] += grow[c];
      }
    }
    if (xg == nullptr) continue;
    m1 *= invn;
    m2 *= invn;
    float* __restrict xgrow = xg + static_cast<size_t>(r) * n;
    if constexpr (L == 1) {
      for (int c = 0; c < n; ++c) {
        const float xhat = (xrow[c] - mean) * recip;
        xgrow[c] += recip * (grow[c] * gv[c] - m1 - xhat * m2);
      }
    } else {
      const int nv = (n / L) * L;
      const auto vmean = V::Broadcast(mean);
      const auto vrecip = V::Broadcast(recip);
      const auto vm1 = V::Broadcast(m1);
      const auto vm2 = V::Broadcast(m2);
      int c = 0;
      for (; c < nv; c += L) {
        const auto xhat = V::Mul(V::Sub(V::Load(xrow + c), vmean), vrecip);
        const auto t = V::Sub(
            V::Sub(V::Mul(V::Load(grow + c), V::Load(gv + c)), vm1),
            V::Mul(xhat, vm2));
        V::Store(xgrow + c, V::Add(V::Load(xgrow + c), V::Mul(vrecip, t)));
      }
      for (; c < n; ++c) {
        const float xhat = (xrow[c] - mean) * recip;
        xgrow[c] += recip * (grow[c] * gv[c] - m1 - xhat * m2);
      }
    }
  }
}

// --- Attention backward ------------------------------------------------
//
// The vector body of attention_backward_packed runs per (sequence, head)
// in three phases over caller scratch, each in register tiles:
//   1. the scaled scores and d_probs, 4 queries x L keys at a time
//      (ScoreRowsT), as AttentionForwardBlockedT tiles its scores;
//   2. the softmax and its backward, 4 rows at a time
//      (SoftmaxBackwardRowsT);
//   3. dQ = dS * K, dK = dS^T * Q and dV = P^T * dO (GradRowsT).
// The seed closure added every gradient term through memory — a
// store-to-load chain per term, the one register tiling removed from the
// forward GEMM. Phase 3 loads each gradient vector once, adds the seed's
// terms in the seed's order (ascending key j for qg, ascending query i
// for kg and vg) and stores it once. The loads and stores that disappear
// never rounded, so every element keeps its exact sequence of roundings
// and the vector levels produce the seed's bits.

// Scores and d_probs of R queries (q and og rows at stride ld) against
// the L keys from j, over the head's transposed keys and values kt and vt
// (row c holds column c of every key, at stride ldk):
//   p[t][j + l] = (sum_c q[t][c] * k[j + l][c]) * scale,
//   dp[t][j + l] = sum_c og[t][c] * v[j + l][c],
// each dot from zero in ascending c in one lane of a register. p and dp
// rows are len floats apart.
template <typename V, int R>
inline void ScoreTileT(const float* __restrict q, const float* __restrict g,
                       int ld, const float* __restrict kt,
                       const float* __restrict vt, int ldk, int len, int dh,
                       int j, float scale, float* __restrict p,
                       float* __restrict dp) {
  typename V::Vec a[R], d[R];
  for (int t = 0; t < R; ++t) a[t] = d[t] = V::Broadcast(0.0f);
  for (int c = 0; c < dh; ++c) {
    const auto kc = V::Load(kt + static_cast<size_t>(c) * ldk + j);
    const auto vc = V::Load(vt + static_cast<size_t>(c) * ldk + j);
    for (int t = 0; t < R; ++t) {
      const size_t at = static_cast<size_t>(t) * ld + c;
      a[t] = V::Add(a[t], V::Mul(V::Broadcast(q[at]), kc));
      d[t] = V::Add(d[t], V::Mul(V::Broadcast(g[at]), vc));
    }
  }
  const auto vs = V::Broadcast(scale);
  for (int t = 0; t < R; ++t) {
    V::Store(p + static_cast<size_t>(t) * len + j, V::Mul(a[t], vs));
    V::Store(dp + static_cast<size_t>(t) * len + j, d[t]);
  }
}

// ScoreTileT over every key: whole L-key vectors, then — when len is not
// a multiple of L — one overlapping vector ending at len, which
// recomputes its overlapped elements from zero and stores the same bits
// again. Below one vector (len < L) each element is a scalar dot.
template <typename V, int R>
inline void ScoreRowsT(const float* __restrict q, const float* __restrict g,
                       int ld, const float* __restrict kt,
                       const float* __restrict vt, int ldk, int len, int dh,
                       float scale, float* __restrict p,
                       float* __restrict dp) {
  constexpr int L = V::kLanes;
  if (len < L) {
    for (int t = 0; t < R; ++t) {
      const float* __restrict qrow = q + static_cast<size_t>(t) * ld;
      const float* __restrict grow = g + static_cast<size_t>(t) * ld;
      for (int j = 0; j < len; ++j) {
        float dot = 0, dpj = 0;
        for (int c = 0; c < dh; ++c) {
          dot += qrow[c] * kt[static_cast<size_t>(c) * ldk + j];
          dpj += grow[c] * vt[static_cast<size_t>(c) * ldk + j];
        }
        p[static_cast<size_t>(t) * len + j] = dot * scale;
        dp[static_cast<size_t>(t) * len + j] = dpj;
      }
    }
    return;
  }
  int j = 0;
  for (; j + L <= len; j += L) {
    ScoreTileT<V, R>(q, g, ld, kt, vt, ldk, len, dh, j, scale, p, dp);
  }
  if (j < len) {
    ScoreTileT<V, R>(q, g, ld, kt, vt, ldk, len, dh, len - L, scale, p, dp);
  }
}

// Softmax of R score rows at stride len, in place, then the softmax
// backward of their d_probs with the post-softmax Scale folded in:
// d_scores = scale * p * (dp - sum(p * dp)). Row for row this is
// SoftmaxRowT and the seed's backward: each row's normalizing sum and
// p . dp dot stays one scalar chain in ascending j. The R rows' chains
// interleave, so one row's adds fill the latency of another's.
template <typename V, int R>
inline void SoftmaxBackwardRowsT(float* __restrict p, float* __restrict dp,
                                 int len, float scale) {
  constexpr int L = V::kLanes;
  float sum[R], dot[R];
  for (int t = 0; t < R; ++t) {
    SoftmaxExpRowT<V>(p + static_cast<size_t>(t) * len, len);
    sum[t] = 0;
    dot[t] = 0;
  }
  for (int j = 0; j < len; ++j) {
    for (int t = 0; t < R; ++t) sum[t] += p[static_cast<size_t>(t) * len + j];
  }
  for (int t = 0; t < R; ++t) {
    SoftmaxDivRowT<V>(p + static_cast<size_t>(t) * len, len, sum[t]);
  }
  for (int j = 0; j < len; ++j) {
    for (int t = 0; t < R; ++t) {
      const size_t at = static_cast<size_t>(t) * len + j;
      dot[t] += p[at] * dp[at];
    }
  }
  const auto vscale = V::Broadcast(scale);
  for (int t = 0; t < R; ++t) {
    const float* __restrict prow = p + static_cast<size_t>(t) * len;
    float* __restrict dprow = dp + static_cast<size_t>(t) * len;
    const auto vdot = V::Broadcast(dot[t]);
    int j = 0;
    for (; j + L <= len; j += L) {
      V::Store(dprow + j, V::Mul(V::Mul(vscale, V::Load(prow + j)),
                                 V::Sub(V::Load(dprow + j), vdot)));
    }
    for (; j < len; ++j) dprow[j] = scale * prow[j] * (dprow[j] - dot[t]);
  }
}

// Backward of attention_forward_blocked over interleaved q/k/v. `scratch`
// holds 2 * max_len * (max_len + head_dim) floats (simd.h): per sequence,
// probs and d_probs [len, len] and, at vector levels, the head's k^T and
// v^T packs [head_dim, len]. The probabilities are recomputed rather than
// cached across the graph's lifetime (the seed closure's trade-off, kept
// here): per element the score dot accumulates ascending c from zero and
// is scaled once, and the softmax is SoftmaxRowT's arithmetic — so at any
// level the recomputed probs match that level's *forward* bits exactly,
// and only cross-level equality is epsilon-gated. The width-1 body is the
// seed closure statement for statement, the training bit-exactness
// reference; the vector body is the three phases above.
template <typename V>
void AttentionBackwardPackedT(const float* __restrict qv,
                              const float* __restrict kv,
                              const float* __restrict vv,
                              const float* __restrict og, float* __restrict qg,
                              float* __restrict kg, float* __restrict vg,
                              const int* __restrict offsets,
                              const int* __restrict lengths, int num_seqs,
                              int num_heads, int dim, float scale,
                              float* __restrict scratch) {
  constexpr int L = V::kLanes;
  const int dh = dim / num_heads;
  if constexpr (L == 1) {
    for (int s = 0; s < num_seqs; ++s) {
      const int off = offsets[s];
      const int len = lengths[s];
      float* __restrict probs = scratch;
      float* __restrict dprobs = scratch + static_cast<size_t>(len) * len;
      for (int h = 0; h < num_heads; ++h) {
        const int col0 = h * dh;
        // --- Recompute this head's attention probabilities -------------
        for (int i = 0; i < len; ++i) {
          const float* __restrict qrow =
              qv + static_cast<size_t>(off + i) * dim + col0;
          float* __restrict prow = probs + static_cast<size_t>(i) * len;
          for (int j = 0; j < len; ++j) {
            const float* __restrict krow =
                kv + static_cast<size_t>(off + j) * dim + col0;
            float dot = 0;
            for (int c = 0; c < dh; ++c) dot += qrow[c] * krow[c];
            prow[j] = dot * scale;
          }
          SoftmaxRowT<V>(prow, len);
        }
        // --- Gradient phases, the seed's accumulation orders -----------
        for (int i = 0; i < len; ++i) {
          const float* __restrict prow = probs + static_cast<size_t>(i) * len;
          float* __restrict dprow = dprobs + static_cast<size_t>(i) * len;
          const float* __restrict grow =
              og + static_cast<size_t>(off + i) * dim + col0;
          // d_probs = d_ctx * vh^T; d_vh += probs^T * d_ctx.
          for (int j = 0; j < len; ++j) {
            const float* __restrict vrow =
                vv + static_cast<size_t>(off + j) * dim + col0;
            float dp = 0;
            for (int c = 0; c < dh; ++c) dp += grow[c] * vrow[c];
            dprow[j] = dp;
            if (vg) {
              float* __restrict vgrow =
                  vg + static_cast<size_t>(off + j) * dim + col0;
              const float p = prow[j];
              for (int c = 0; c < dh; ++c) vgrow[c] += p * grow[c];
            }
          }
          // Softmax backward, then the post-softmax Scale folds into the
          // score gradient: d_scores = scale * p * (dp - sum(p * dp)).
          float dot = 0;
          for (int j = 0; j < len; ++j) dot += prow[j] * dprow[j];
          for (int j = 0; j < len; ++j) {
            dprow[j] = scale * prow[j] * (dprow[j] - dot);
          }
          // d_qh += d_scores * kh; d_kh += d_scores^T * qh.
          const float* __restrict qrow =
              qv + static_cast<size_t>(off + i) * dim + col0;
          float* __restrict qgrow =
              qg ? qg + static_cast<size_t>(off + i) * dim + col0 : nullptr;
          for (int j = 0; j < len; ++j) {
            const float ds = dprow[j];
            const float* __restrict krow =
                kv + static_cast<size_t>(off + j) * dim + col0;
            if (qgrow) {
              for (int c = 0; c < dh; ++c) qgrow[c] += ds * krow[c];
            }
            if (kg) {
              float* __restrict kgrow =
                  kg + static_cast<size_t>(off + j) * dim + col0;
              for (int c = 0; c < dh; ++c) kgrow[c] += ds * qrow[c];
            }
          }
        }
      }
    }
  } else {
    for (int s = 0; s < num_seqs; ++s) {
      const int len = lengths[s];
      const size_t ll = static_cast<size_t>(len) * len;
      float* __restrict probs = scratch;
      float* __restrict dprobs = scratch + ll;
      float* __restrict kt = scratch + 2 * ll;
      float* __restrict vt = kt + static_cast<size_t>(dh) * len;
      for (int h = 0; h < num_heads; ++h) {
        // This head's columns of the sequence's rows, at stride dim.
        const size_t base = static_cast<size_t>(offsets[s]) * dim + h * dh;
        for (int j = 0; j < len; ++j) {
          const size_t row = base + static_cast<size_t>(j) * dim;
          const float* __restrict krow = kv + row;
          const float* __restrict vrow = vv + row;
          for (int c = 0; c < dh; ++c) {
            kt[static_cast<size_t>(c) * len + j] = krow[c];
            vt[static_cast<size_t>(c) * len + j] = vrow[c];
          }
        }
        ForRowTiles<4>(len, [&]<int R>(int i) {
          const size_t at = base + static_cast<size_t>(i) * dim;
          const size_t row = static_cast<size_t>(i) * len;
          ScoreRowsT<V, R>(qv + at, og + at, dim, kt, vt, len, len, dh,
                           scale, probs + row, dprobs + row);
          SoftmaxBackwardRowsT<V, R>(probs + row, dprobs + row, len, scale);
        });
        if (qg) {
          GradRowsT<V>(qg + base, kv + base, dim, dprobs, len, 1, len, len,
                       dh);
        }
        if (kg) {
          GradRowsT<V>(kg + base, qv + base, dim, dprobs, 1, len, len, len,
                       dh);
        }
        if (vg) {
          GradRowsT<V>(vg + base, og + base, dim, probs, 1, len, len, len,
                       dh);
        }
      }
    }
  }
}

// Backward of attention_cls_blocked: AttentionBackwardPackedT for query 0
// of every sequence only. The training step runs the last layer CLS-only,
// so there the context gradient of every other query is exactly zero, and
// the full kernel's contributions from those queries are all ±0 terms
// added to gradient buffers (see the header note above: they never change
// a bit). q, og and qg are compact [num_seqs, dim]; kbt and vbt hold the
// keys and the values transposed per head, [head][head_dim][total_rows]
// (RepackHeadsKT of each); kg and vg stay interleaved [total_rows, dim].
// `probs` is caller scratch of 2 * max(lengths) floats.
//
// Per element the arithmetic is the full kernel's for query 0: the score
// and d_probs dots, the softmax and its backward run through the same
// helpers (ScoreRowsT over the transposed blocks, SoftmaxBackwardRowsT),
// each key's and value's gradient receives its one term (GradRowsT), and
// the qg row sums its terms in registers, four head columns at a time,
// in the same ascending-j order — the same sequence of roundings —
// because kbt's rows run across j.
template <typename V>
void AttentionBackwardClsT(const float* __restrict qv,
                           const float* __restrict kbt,
                           const float* __restrict vbt,
                           const float* __restrict og, float* __restrict qg,
                           float* __restrict kg, float* __restrict vg,
                           const int* __restrict offsets,
                           const int* __restrict lengths, int num_seqs,
                           int num_heads, int total_rows, int dim, float scale,
                           float* __restrict probs) {
  const int dh = dim / num_heads;
  for (int s = 0; s < num_seqs; ++s) {
    const int len = lengths[s];
    float* __restrict prow = probs;
    float* __restrict dprow = probs + len;
    for (int h = 0; h < num_heads; ++h) {
      const int col0 = h * dh;
      const size_t base = static_cast<size_t>(offsets[s]) * dim + col0;
      const float* __restrict qrow = qv + static_cast<size_t>(s) * dim + col0;
      const float* __restrict grow = og + static_cast<size_t>(s) * dim + col0;
      const float* __restrict ktb =
          kbt + (static_cast<size_t>(h) * dh) * total_rows + offsets[s];
      const float* __restrict vtb =
          vbt + (static_cast<size_t>(h) * dh) * total_rows + offsets[s];
      ScoreRowsT<V, 1>(qrow, grow, dim, ktb, vtb, total_rows, len, dh, scale,
                       prow, dprow);
      SoftmaxBackwardRowsT<V, 1>(prow, dprow, len, scale);
      // d_vh += probs^T * d_ctx; d_kh += d_scores^T * qh: one term per row.
      GradRowsT<V>(vg + base, grow, dim, prow, 1, 0, len, 1, dh);
      GradRowsT<V>(kg + base, qrow, dim, dprow, 1, 0, len, 1, dh);
      // d_qh += d_scores * kh.
      float* __restrict qgrow = qg + static_cast<size_t>(s) * dim + col0;
      int c = 0;
      for (; c + 4 <= dh; c += 4) {
        const float* __restrict k0 = ktb + static_cast<size_t>(c) * total_rows;
        const float* __restrict k1 = k0 + total_rows;
        const float* __restrict k2 = k1 + total_rows;
        const float* __restrict k3 = k2 + total_rows;
        float g0 = qgrow[c], g1 = qgrow[c + 1], g2 = qgrow[c + 2],
              g3 = qgrow[c + 3];
        for (int j = 0; j < len; ++j) {
          const float ds = dprow[j];
          g0 += ds * k0[j];
          g1 += ds * k1[j];
          g2 += ds * k2[j];
          g3 += ds * k3[j];
        }
        qgrow[c] = g0;
        qgrow[c + 1] = g1;
        qgrow[c + 2] = g2;
        qgrow[c + 3] = g3;
      }
      for (; c < dh; ++c) {
        const float* __restrict kc = ktb + static_cast<size_t>(c) * total_rows;
        float g = qgrow[c];
        for (int j = 0; j < len; ++j) g += dprow[j] * kc[j];
        qgrow[c] = g;
      }
    }
  }
}

// Fused Adam update (the adam_step contract). Elementwise over
// independent lanes with correctly rounded mul/add/sub/div/sqrt only, so
// the vector body is bit-identical to the scalar tail as long as it keeps
// the scalar expression tree: products and quotients associate exactly as
// written in the tail — in particular (1 - beta2) * g * g multiplies left
// to right. At width 1 the vector body is that tree and covers every
// element.
template <typename V>
void AdamStepT(float* __restrict value, const float* __restrict grad,
               float* __restrict m, float* __restrict v, size_t n, float lr,
               float beta1, float beta2, float eps, float bias1, float bias2) {
  constexpr int L = V::kLanes;
  const auto vb1 = V::Broadcast(beta1);
  const auto vomb1 = V::Broadcast(1.0f - beta1);
  const auto vb2 = V::Broadcast(beta2);
  const auto vomb2 = V::Broadcast(1.0f - beta2);
  const auto vbias1 = V::Broadcast(bias1);
  const auto vbias2 = V::Broadcast(bias2);
  const auto vlr = V::Broadcast(lr);
  const auto veps = V::Broadcast(eps);
  const size_t nv = (n / L) * L;
  size_t j = 0;
  for (; j < nv; j += L) {
    const auto g = V::Load(grad + j);
    const auto mj = V::Add(V::Mul(vb1, V::Load(m + j)), V::Mul(vomb1, g));
    const auto vj =
        V::Add(V::Mul(vb2, V::Load(v + j)), V::Mul(V::Mul(vomb2, g), g));
    V::Store(m + j, mj);
    V::Store(v + j, vj);
    const auto m_hat = V::Div(mj, vbias1);
    const auto v_hat = V::Div(vj, vbias2);
    const auto upd = V::Div(V::Mul(vlr, m_hat), V::Add(V::Sqrt(v_hat), veps));
    V::Store(value + j, V::Sub(V::Load(value + j), upd));
  }
  for (; j < n; ++j) {
    m[j] = beta1 * m[j] + (1.0f - beta1) * grad[j];
    v[j] = beta2 * v[j] + (1.0f - beta2) * grad[j] * grad[j];
    const float m_hat = m[j] / bias1;
    const float v_hat = v[j] / bias2;
    value[j] -= lr * m_hat / (sqrtf(v_hat) + eps);
  }
}

// One quantization step of the quantize_buffer contract: round to nearest,
// ties away from zero, saturate to [-127, 127]. Written as
// trunc(t + copysign(0.5, t)) — every operation is an exact IEEE op, so a
// vector lane computing the same expression produces the same int8.
static inline int8_t QuantizeOneRef(float x, float inv_scale) {
  const float t = x * inv_scale;
  const float r = truncf(t + copysignf(0.5f, t));
  if (r >= 127.0f) return 127;
  if (r <= -127.0f) return -127;
  return static_cast<int8_t>(r);
}

// quantize_buffer: QuantizeOneRef's sequence lane for lane. Scale,
// V::CopySign(0.5, t), add, V::Trunc, clamp to [-127, 127] with V::Min and
// V::Max, then V::StoreI8 narrows the L integral floats to int8. Each step
// is an exact IEEE op, so every lane gives QuantizeOneRef's int8; the
// elements past the last whole vector run QuantizeOneRef itself.
template <typename V>
void QuantizeBufferT(const float* __restrict x, int n, float inv_scale,
                     int8_t* __restrict out) {
  constexpr int L = V::kLanes;
  const auto vs = V::Broadcast(inv_scale);
  const auto half = V::Broadcast(0.5f);
  const auto hi = V::Broadcast(127.0f);
  const auto lo = V::Broadcast(-127.0f);
  int i = 0;
  for (; i + L <= n; i += L) {
    const auto t = V::Mul(V::Load(x + i), vs);
    const auto r = V::Trunc(V::Add(t, V::CopySign(half, t)));
    V::StoreI8(out + i, V::Max(V::Min(r, hi), lo));
  }
  for (; i < n; ++i) out[i] = QuantizeOneRef(x[i], inv_scale);
}

// int8_gemm_packed over the PackInt8WeightTiles layout, one activation row
// per pass. The policy's integer steps: V::WidenI8 loads 16 int8 values
// sign-extended to a V::VecI16, V::LoadI16 loads 16 int16 values,
// V::MaddI16 adds the 16 products a[kk] * b[kk] into a V::AccI32 of int32
// partial sums, and V::FoldSums4 adds four accumulators up into four int32
// totals. Per tile, each 16-value activation block is widened once and
// multiplied against the tile's kInt8TileN channel rows, one accumulator
// per channel, folded once at tile end. Integer sums are exact in any
// grouping, so every level gets the totals of a plain int32 dot loop over
// the unpacked operands (the zero padding adds exact zeros).
//
// The totals of up to kChunkTiles tiles wait in a stack tile, and the
// epilogue dequantizes them together, L channels per vector:
// (total * a_scale) * b_scale[j], then + bias[j], then, when relu is set,
// the `> 0` clamp as a compare mask (And(GtZero(y), y) is y where y > 0
// and +0 elsewhere, the bits of `y > 0 ? y : 0`). The channels past the
// last whole vector run the same ops as scalars, so the bits match at
// every level.
template <typename V>
void Int8GemmPackedT(const int8_t* __restrict a,
                     const int16_t* __restrict bp, float* __restrict c,
                     int m, int k, int n, float a_scale,
                     const float* __restrict b_scale,
                     const float* __restrict bias, int relu) {
  constexpr int L = V::kLanes;
  constexpr int kTile = kInt8TileN * kInt8TileK;
  // 64 channels: the encoder's 48- and 96-wide sites take one or two
  // epilogue passes per row, from 512 bytes of stack.
  constexpr int kChunkTiles = 16;
  constexpr int kChunk = kChunkTiles * kInt8TileN;
  const int kp = Int8PackedKPad(k);
  const int kb = kp / kInt8TileK;
  const int tiles = (n + kInt8TileN - 1) / kInt8TileN;
  for (int i = 0; i < m; ++i) {
    const int8_t* __restrict arow = a + static_cast<size_t>(i) * kp;
    float* __restrict crow = c + static_cast<size_t>(i) * n;
    for (int t0 = 0; t0 < tiles; t0 += kChunkTiles) {
      const int t1 = MinOf(tiles, t0 + kChunkTiles);
      int32_t sums[kChunk];
      for (int t = t0; t < t1; ++t) {
        const int16_t* __restrict btile =
            bp + static_cast<size_t>(t) * kb * kTile;
        auto acc0 = V::ZeroI32();
        auto acc1 = V::ZeroI32();
        auto acc2 = V::ZeroI32();
        auto acc3 = V::ZeroI32();
        for (int b = 0; b < kb; ++b) {
          const auto a16 = V::WidenI8(arow + b * kInt8TileK);
          const int16_t* __restrict bb =
              btile + static_cast<size_t>(b) * kTile;
          acc0 = V::MaddI16(acc0, a16, V::LoadI16(bb));
          acc1 = V::MaddI16(acc1, a16, V::LoadI16(bb + kInt8TileK));
          acc2 = V::MaddI16(acc2, a16, V::LoadI16(bb + 2 * kInt8TileK));
          acc3 = V::MaddI16(acc3, a16, V::LoadI16(bb + 3 * kInt8TileK));
        }
        V::FoldSums4(acc0, acc1, acc2, acc3,
                     sums + (t - t0) * kInt8TileN);
      }
      const int j0 = t0 * kInt8TileN;
      const int nc = MinOf(n, t1 * kInt8TileN) - j0;
      float totals[kChunk];
      for (int ch = 0; ch < nc; ++ch) {
        totals[ch] = static_cast<float>(sums[ch]);
      }
      const float* __restrict bs = b_scale + j0;
      float* __restrict out = crow + j0;
      int ch = 0;
      if constexpr (L > 1) {
        const auto vas = V::Broadcast(a_scale);
        for (; ch + L <= nc; ch += L) {
          auto y =
              V::Mul(V::Mul(V::Load(totals + ch), vas), V::Load(bs + ch));
          if (bias != nullptr) y = V::Add(y, V::Load(bias + j0 + ch));
          if (relu != 0) y = V::And(V::GtZero(y), y);
          V::Store(out + ch, y);
        }
      }
      for (; ch < nc; ++ch) {
        float y = totals[ch] * a_scale * bs[ch];
        if (bias != nullptr) y += bias[j0 + ch];
        out[ch] = (relu != 0 && !(y > 0)) ? 0.0f : y;
      }
    }
  }
}

// The kernel table of one level: every entry bound straight to its kernel
// body instantiated with the level's policy V. Each ISA translation unit
// builds its table with one call, so every level binds the same bodies to
// the same entries.
template <typename V>
constexpr Kernels MakeKernels(Level level, const char* name) {
  return Kernels{
      .level = level,
      .name = name,
      .layer_norm_rows = &LayerNormRowsT<V>,
      .embed_gather_add = &EmbedGatherAddT<V>,
      .attention_forward_blocked = &AttentionForwardBlockedT<V>,
      .attention_cls_blocked = &AttentionForwardBlockedT<V, true>,
      .int8_gemm_packed = &Int8GemmPackedT<V>,
      .quantize_buffer = &QuantizeBufferT<V>,
      .linear_bias_act = &LinearBiasActT<V>,
      .add_rows = &AddRowsT<V>,
      .matmul_backward_a = &MatMulBackwardAT<V>,
      .matmul_backward_b = &MatMulBackwardBT<V>,
      .bias_act_backward = &BiasActBackwardT<V>,
      .layer_norm_rows_backward = &LayerNormRowsBackwardT<V>,
      .attention_backward_packed = &AttentionBackwardPackedT<V>,
      .attention_backward_cls = &AttentionBackwardClsT<V>,
      .adam_step = &AdamStepT<V>,
  };
}

}  // namespace qpe::nn::simd

#endif  // QPE_NN_SIMD_KERNELS_INL_H_
