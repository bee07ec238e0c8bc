#ifndef QPE_NN_PACKED_FORWARD_H_
#define QPE_NN_PACKED_FORWARD_H_

#include <cmath>
#include <cstddef>
#include <cstring>

#include "nn/packed_batch.h"
#include "nn/simd.h"

namespace qpe::nn {

// Repacks the interleaved key projection k [rows, dim] into kbt
// [head][head_dim][rows]: row (h, c) of kbt holds column h*head_dim + c of
// k, contiguous across packed rows. Plain copies.
void RepackHeadsKT(const float* k, int rows, int dim, int num_heads,
                   float* kbt);
// Repacks the interleaved value projection v [rows, dim] into vb
// [head][rows][head_dim]: each head's head_dim lanes contiguous per row.
void RepackHeadsVB(const float* v, int rows, int dim, int num_heads,
                   float* vb);

// The shared packed inference skeleton: embedding gather -> pre-norm
// attention blocks -> pre-norm feed-forward blocks -> CLS pooling ->
// optional output projection, all over raw contiguous buffers in `ws`.
// The caller packs the batch first (ws.ids*/ws.layout via
// encoder::PackPlansColumns) and supplies every GEMM through `linear(site,
// x, m, in, out, y, relu)`; sites are layer-major wq, wk, wv, wo, ff1, ff2,
// then the projection at num_layers * 6. `relu` is true exactly for the
// ff1 site — the callback owns the activation so a fused implementation
// (simd linear_bias_act) can apply it in the GEMM epilogue; implementations
// must reproduce the bias_relu kernel's `> 0` clamp bit for bit. Returns a
// pointer into ws (ws.cls or ws.proj) holding the [num_seqs, output_dim]
// result — valid until the workspace's next use.
//
// Numerics: every kernel call and elementwise loop below reproduces the
// tensor op chain's arithmetic per output element (the ReLU clamp uses
// the `> 0` select so -0.0 maps to +0.0 exactly like the fused kernel), so
// with an exact fp32 `linear` this forward is bit-identical to per-plan
// Encode at the scalar level and epsilon-equal at vector levels (the one
// sanctioned divergence is the vector exp). Attention runs on K/V repacked
// into head blocks; the head-blocked kernel is bit-identical to the
// interleaved attention_forward_packed kernel per-plan Encode uses, at
// every level, so the repack changes addressing, never bits.
template <typename LinearFn>
const float* PackedEncodeForward(const PackedModelView& mv, PackedBatch& ws,
                                 LinearFn&& linear) {
  const BatchLayout& layout = ws.layout;
  const int rows = layout.total_rows;
  const int num_seqs = layout.size();
  const int d = mv.model_dim;
  const int f = mv.ff_dim;
  const float invd = 1.0f / static_cast<float>(d);
  const int head_dim = d / mv.num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const simd::Kernels& kern = simd::K();

  int max_len = 0;
  for (const int len : layout.lengths) {
    if (len > max_len) max_len = len;
  }
  const size_t rd = static_cast<size_t>(rows) * d;
  ws.EnsureF(&ws.h, rd);
  ws.EnsureF(&ws.normed, rd);
  ws.EnsureF(&ws.q, rd);
  ws.EnsureF(&ws.k, rd);
  ws.EnsureF(&ws.v, rd);
  ws.EnsureF(&ws.ctx, rd);
  ws.EnsureF(&ws.ff, static_cast<size_t>(rows) * f);
  ws.EnsureF(&ws.cls, static_cast<size_t>(num_seqs) * d);
  ws.EnsureF(&ws.kbt, rd);
  ws.EnsureF(&ws.vb, rd);
  ws.EnsureF(&ws.probs, static_cast<size_t>(max_len) * max_len);

  kern.embed_gather_add(mv.embed1, mv.embed2, mv.embed3, mv.positional,
                        ws.ids1.data(), ws.ids2.data(), ws.ids3.data(),
                        layout.positions.data(), ws.h.data(), rows,
                        mv.level1_dim, mv.level2_dim, mv.level3_dim);

  float* h = ws.h.data();
  float* normed = ws.normed.data();
  float* ff = ws.ff.data();
  for (int li = 0; li < mv.num_layers; ++li) {
    const PackedLayerView& lp = mv.layers[li];
    const int base = li * 6;
    // Pre-norm attention block with residual.
    kern.layer_norm_rows(h, lp.norm1_gamma, lp.norm1_beta, normed, rows, d,
                         invd);
    linear(base + 0, normed, rows, d, d, ws.q.data(), false);
    linear(base + 1, normed, rows, d, d, ws.k.data(), false);
    linear(base + 2, normed, rows, d, d, ws.v.data(), false);
    RepackHeadsKT(ws.k.data(), rows, d, mv.num_heads, ws.kbt.data());
    RepackHeadsVB(ws.v.data(), rows, d, mv.num_heads, ws.vb.data());
    kern.attention_forward_blocked(
        ws.q.data(), ws.kbt.data(), ws.vb.data(), ws.ctx.data(),
        layout.offsets.data(), layout.lengths.data(), num_seqs, mv.num_heads,
        rows, d, scale, ws.probs.data());
    linear(base + 3, ws.ctx.data(), rows, d, d, normed, false);
    kern.add_rows(h, normed, rd);
    // Pre-norm feed-forward block (ReLU) with residual.
    kern.layer_norm_rows(h, lp.norm2_gamma, lp.norm2_beta, normed, rows, d,
                         invd);
    linear(base + 4, normed, rows, d, f, ff, /*relu=*/true);
    linear(base + 5, ff, rows, f, d, normed, false);
    kern.add_rows(h, normed, rd);
  }

  // CLS pooling, then the optional output projection on the [B, d] matrix.
  float* cls = ws.cls.data();
  for (int s = 0; s < num_seqs; ++s) {
    const float* src = h + static_cast<size_t>(layout.offsets[s]) * d;
    std::memcpy(cls + static_cast<size_t>(s) * d, src, sizeof(float) * d);
  }
  if (!mv.has_projection) return cls;
  ws.EnsureF(&ws.proj, static_cast<size_t>(num_seqs) * mv.output_dim);
  linear(mv.num_layers * 6, cls, num_seqs, d, mv.output_dim, ws.proj.data(),
         false);
  return ws.proj.data();
}

}  // namespace qpe::nn

#endif  // QPE_NN_PACKED_FORWARD_H_
