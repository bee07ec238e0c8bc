#ifndef QPE_NN_PACKED_FORWARD_H_
#define QPE_NN_PACKED_FORWARD_H_

#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

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

// One layer's activations a recording forward retains for the backward,
// row-major. `n` is the layer's row count: every packed row in every layer
// but the last, which runs CLS-only (see PackedEncodeForward) and keeps
// only the B = num_seqs CLS rows, in sequence order, of q and everything
// after it. x, n1, k and v always cover every row — each CLS query attends
// to every key and value of its sequence.
struct PackedLayerTape {
  std::vector<float> x;        // [rows, d] layer input
  std::vector<float> n1;       // [rows, d] norm1 output
  std::vector<float> q;        // [n, d] query projection
  std::vector<float> k, v;     // [rows, d] key / value projections
  std::vector<float> att;      // [n, d] attention context
  std::vector<float> hm;       // [n, d] post-attention residual
  std::vector<float> n2;       // [n, d] norm2 output
  std::vector<float> ffa;      // [n, f] ff1 ReLU output
  std::vector<float> mask_att, mask_ff;  // [n, d] dropout multipliers
};

// Activation tape of a recording forward. Inference reuses one set of
// buffers across layers; with a tape every layer writes its own, so the
// backward can read them all. The last layer's output is ws.cls. When
// `masked`, the caller has drawn every layer's dropout multipliers, and
// the forward scales the attention and feed-forward branches by them
// before each residual add.
struct PackedTape {
  std::vector<PackedLayerTape> layers;
  bool masked = false;
};

// The fp32 `linear` of the engine over a site table: the fused linear
// kernel reproduces the op chain's fill + blocked matmul + bias add (+ ReLU
// clamp) value stream per output element, so the packed result is
// bit-identical to it — without the zero-fill and bias passes.
struct Fp32Linear {
  const PackedRefs* refs;
  void operator()(int site, const float* x, int m, int in, int out, float* y,
                  bool relu) const {
    const PackedRefs::Site& s = refs->sites[site];
    simd::K().linear_bias_act(x, s.weight.value().data(),
                              s.bias.value().data(), y, m, in, out,
                              relu ? 1 : 0);
  }
};

// The one packed transformer forward: embedding gather -> pre-norm
// attention blocks -> pre-norm feed-forward blocks -> CLS pooling ->
// optional output projection, all over raw contiguous buffers in `ws`.
// The caller packs the batch first (ws.ids*/ws.layout via
// encoder::PackPlansColumns) and supplies every GEMM through `linear(site,
// x, m, in, out, y, relu)`; sites are layer-major wq, wk, wv, wo, ff1, ff2,
// then the projection at num_layers * 6. `relu` is true exactly for the
// ff1 site — the callback owns the activation so a fused implementation
// (simd linear_bias_act, int8_gemm_packed) can apply it in the GEMM
// epilogue; implementations must reproduce the op chain's `> 0 ? y : 0`
// clamp bit for bit. Returns a pointer into ws (ws.cls or ws.proj) holding
// the [num_seqs, output_dim] result — valid until the workspace's next
// use.
//
// Four callers share it: fp32 inference, int8 inference, the int8
// calibration tap, and the recording training step, the one caller that
// passes a `tape` (see PackedTape). Without a tape the forward allocates
// and computes nothing for one. Either way the last layer runs CLS-only,
// because only the CLS rows leave it and the PPSR loss reads nothing
// else: LN1, wk and wv over every row, then wq, attention
// (attention_cls_blocked), wo, LN2, ff1 and ff2 at m = num_seqs over the
// gathered CLS rows. The tape keeps exactly what the backward of that
// layer reads.
//
// Numerics: every kernel call and elementwise loop below reproduces the
// tensor op chain's arithmetic per output element (the ReLU clamp uses
// the `> 0` select so -0.0 maps to +0.0 exactly like the fused kernel), so
// with an exact fp32 `linear` this forward is bit-identical to per-plan
// Encode at every SIMD level. Attention runs attention_forward_blocked on
// K/V repacked into head blocks — the kernel per-plan Encode runs too,
// through nn::MultiHeadAttentionPacked — and the last layer runs its CLS
// instantiation, whose rows equal the full kernel's bit for bit.
template <typename LinearFn>
const float* PackedEncodeForward(const PackedModelView& mv, PackedBatch& ws,
                                 LinearFn&& linear,
                                 PackedTape* tape = nullptr) {
  const BatchLayout& layout = ws.layout;
  const int rows = layout.total_rows;
  const int num_seqs = layout.size();
  const int d = mv.model_dim;
  const int f = mv.ff_dim;
  const int num_layers = mv.num_layers;
  const float invd = 1.0f / static_cast<float>(d);
  const int head_dim = d / mv.num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const simd::Kernels& kern = simd::K();

  int max_len = 0;
  for (const int len : layout.lengths) {
    if (len > max_len) max_len = len;
  }
  const size_t rd = static_cast<size_t>(rows) * d;
  const size_t rf = static_cast<size_t>(rows) * f;
  const size_t bd = static_cast<size_t>(num_seqs) * d;
  if (tape == nullptr) {
    ws.EnsureF(&ws.q, rd);
    ws.EnsureF(&ws.k, rd);
    ws.EnsureF(&ws.v, rd);
    ws.EnsureF(&ws.ctx, rd);
    ws.EnsureF(&ws.ff, rf);
  } else {
    if (tape->layers.size() < static_cast<size_t>(num_layers)) {
      tape->layers.resize(num_layers);
    }
    for (int li = 0; li < num_layers; ++li) {
      PackedLayerTape& t = tape->layers[li];
      const bool last = li + 1 == num_layers;
      for (std::vector<float>* buf : {&t.x, &t.n1, &t.k, &t.v}) {
        ws.EnsureF(buf, rd);
      }
      for (std::vector<float>* buf : {&t.q, &t.att, &t.hm, &t.n2}) {
        ws.EnsureF(buf, last ? bd : rd);
      }
      ws.EnsureF(&t.ffa, last ? static_cast<size_t>(num_seqs) * f : rf);
    }
  }
  if (tape == nullptr || num_layers == 0) ws.EnsureF(&ws.h, rd);
  ws.EnsureF(&ws.normed, rd);
  ws.EnsureF(&ws.cls, bd);
  ws.EnsureF(&ws.kbt, rd);
  ws.EnsureF(&ws.vb, rd);
  ws.EnsureF(&ws.probs, static_cast<size_t>(max_len) * max_len);

  float* h = tape != nullptr && num_layers > 0 ? tape->layers[0].x.data()
                                               : ws.h.data();
  kern.embed_gather_add(mv.embed1, mv.embed2, mv.embed3, mv.positional,
                        ws.ids1.data(), ws.ids2.data(), ws.ids3.data(),
                        layout.positions.data(), h, rows, mv.level1_dim,
                        mv.level2_dim, mv.level3_dim);

  // `normed` doubles as the scratch of the pre-residual linear outputs.
  float* normed = ws.normed.data();
  float* cls = ws.cls.data();
  // dst = x + delta over n floats: in place for inference, a copy first
  // when the tape keeps x.
  auto residual = [&](float* dst, const float* x, const float* delta,
                      size_t n) {
    if (dst != x) std::memcpy(dst, x, sizeof(float) * n);
    kern.add_rows(dst, delta, n);
  };
  // dst [B, d] = the CLS (first) row of every sequence of src [rows, d].
  auto gather_cls = [&](const float* src, float* dst) {
    for (int s = 0; s < num_seqs; ++s) {
      std::memcpy(dst + static_cast<size_t>(s) * d,
                  src + static_cast<size_t>(layout.offsets[s]) * d,
                  sizeof(float) * d);
    }
  };
  for (int li = 0; li < num_layers; ++li) {
    const PackedLayerView& lp = mv.layers[li];
    const int base = li * 6;
    PackedLayerTape* t = tape != nullptr ? &tape->layers[li] : nullptr;
    float* n1 = t != nullptr ? t->n1.data() : normed;
    float* q = t != nullptr ? t->q.data() : ws.q.data();
    float* k = t != nullptr ? t->k.data() : ws.k.data();
    float* v = t != nullptr ? t->v.data() : ws.v.data();
    float* att = t != nullptr ? t->att.data() : ws.ctx.data();
    float* hm = t != nullptr ? t->hm.data() : h;
    float* n2 = t != nullptr ? t->n2.data() : normed;
    float* ffa = t != nullptr ? t->ffa.data() : ws.ff.data();
    const bool masked = t != nullptr && tape->masked;
    // Only the CLS rows leave the last layer, so it computes K and V for
    // every row (each CLS query attends to all keys of its sequence) and
    // everything after them for the B gathered CLS rows alone, ending in
    // ws.cls. Every kernel is row-independent, so those rows keep their
    // bits.
    const bool cls_only = li + 1 == num_layers;
    float* out = cls_only       ? cls
                 : t == nullptr ? h
                                : tape->layers[li + 1].x.data();
    const int m = cls_only ? num_seqs : rows;
    const size_t md = static_cast<size_t>(m) * d;

    // Pre-norm attention block with residual.
    kern.layer_norm_rows(h, lp.norm1_gamma, lp.norm1_beta, n1, rows, d, invd);
    if (!cls_only) linear(base + 0, n1, rows, d, d, q, false);
    linear(base + 1, n1, rows, d, d, k, false);
    linear(base + 2, n1, rows, d, d, v, false);
    RepackHeadsKT(k, rows, d, mv.num_heads, ws.kbt.data());
    RepackHeadsVB(v, rows, d, mv.num_heads, ws.vb.data());
    if (cls_only) {
      // n1's CLS rows go to a buffer nothing reads again: k (it lives on
      // in kbt) without a tape, normed (n1 is the tape's own) with one.
      float* n1_cls = t == nullptr ? k : normed;
      gather_cls(h, cls);
      gather_cls(n1, n1_cls);
      linear(base + 0, n1_cls, m, d, d, q, false);
      kern.attention_cls_blocked(
          q, ws.kbt.data(), ws.vb.data(), att, layout.offsets.data(),
          layout.lengths.data(), num_seqs, mv.num_heads, rows, d, scale,
          ws.probs.data());
      // The rest of the layer reads its input from ws.cls; without a tape
      // it runs in place there.
      h = cls;
      if (t == nullptr) hm = cls;
    } else {
      kern.attention_forward_blocked(
          q, ws.kbt.data(), ws.vb.data(), att, layout.offsets.data(),
          layout.lengths.data(), num_seqs, mv.num_heads, rows, d, scale,
          ws.probs.data());
    }
    linear(base + 3, att, m, d, d, normed, false);
    if (masked) {
      const float* mk = t->mask_att.data();
      for (size_t i = 0; i < md; ++i) normed[i] *= mk[i];
    }
    residual(hm, h, normed, md);
    // Pre-norm feed-forward block (ReLU) with residual.
    kern.layer_norm_rows(hm, lp.norm2_gamma, lp.norm2_beta, n2, m, d, invd);
    linear(base + 4, n2, m, d, f, ffa, /*relu=*/true);
    linear(base + 5, ffa, m, f, d, normed, false);
    if (masked) {
      const float* mk = t->mask_ff.data();
      for (size_t i = 0; i < md; ++i) normed[i] *= mk[i];
    }
    residual(out, hm, normed, md);
    h = out;
  }

  // CLS pooling of the embeddings when there is no layer (the last layer
  // wrote ws.cls itself), then the optional output projection on the
  // [B, d] matrix.
  if (h != cls) gather_cls(h, cls);
  if (!mv.has_projection) return cls;
  ws.EnsureF(&ws.proj, static_cast<size_t>(num_seqs) * mv.output_dim);
  linear(num_layers * 6, cls, num_seqs, d, mv.output_dim, ws.proj.data(),
         false);
  return ws.proj.data();
}

}  // namespace qpe::nn

#endif  // QPE_NN_PACKED_FORWARD_H_
