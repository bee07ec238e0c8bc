#include "nn/packed_train.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "nn/simd.h"

namespace qpe::nn {

namespace {

void Ensure(std::vector<float>* buf, size_t n) {
  if (buf->size() < n) buf->resize(n);
}

// Gradient pointer for one parameter, resolved at backward time so a
// GradientCapture alive on this thread redirects the write into its shard
// buffer — exactly like the op-chain closures.
float* Gp(const Tensor& t) {
  return t.impl()->requires_grad ? GradPtr(t.impl()) : nullptr;
}

// Value pointer of one parameter.
const float* V(const Tensor& t) { return t.value().data(); }

}  // namespace

PackedTrainBatch& PackedTrainBatch::ThreadLocal() {
  thread_local PackedTrainBatch ws;
  return ws;
}

uint64_t PackedTrainBatch::BeginForward(float dropout, util::Rng* rng) {
  tape.masked = rng != nullptr && dropout > 0.0f;
  if (tape.masked) {
    const BatchLayout& layout = batch.layout;
    const int num_layers = batch.view.num_layers;
    const int d = batch.view.model_dim;
    const int S = layout.size();
    const size_t rd = static_cast<size_t>(layout.total_rows) * d;
    const size_t bd = static_cast<size_t>(S) * d;
    if (tape.layers.size() < static_cast<size_t>(num_layers)) {
      tape.layers.resize(num_layers);
    }
    for (int li = 0; li < num_layers; ++li) {
      const size_t n = li + 1 == num_layers ? bd : rd;
      Ensure(&tape.layers[li].mask_att, n);
      Ensure(&tape.layers[li].mask_ff, n);
    }
    const float keep = 1.0f / (1.0f - dropout);
    for (int ci = 0; ci < S; ++ci) {
      const int s = S - 1 - ci;
      const size_t count = static_cast<size_t>(layout.lengths[s]) * d;
      for (int li = 0; li < num_layers; ++li) {
        // The CLS-only last layer keeps its CLS row's masks, at row s; the
        // rest of the sequence's draws only advance the stream.
        const bool last = li + 1 == num_layers;
        const size_t base = last ? static_cast<size_t>(s) * d
                                 : static_cast<size_t>(layout.offsets[s]) * d;
        const size_t kept = last ? static_cast<size_t>(d) : count;
        rng->BernoulliFill(dropout, 0.0f, keep,
                           tape.layers[li].mask_att.data() + base, kept,
                           count);
        rng->BernoulliFill(dropout, 0.0f, keep,
                           tape.layers[li].mask_ff.data() + base, kept,
                           count);
      }
    }
  }
  return ++generation;
}

void PackedTrainBackward(PackedTrainBatch& ws, const PackedRefs& refs,
                         const float* out_grad, uint64_t generation) {
  if (ws.generation != generation) {
    std::fprintf(stderr,
                 "PackedTrainBackward: retained activations were overwritten "
                 "by a newer forward before Backward() ran\n");
    std::abort();
  }
  const PackedModelView& view = ws.batch.view;
  const BatchLayout& layout = ws.batch.layout;
  const simd::Kernels& kern = simd::K();
  const int rows = layout.total_rows;
  const int S = layout.size();
  const int d = view.model_dim;
  const int f = view.ff_dim;
  const int od = view.output_dim;
  const float invd = 1.0f / static_cast<float>(d);
  const int head_dim = d / view.num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const size_t rd = static_cast<size_t>(rows) * d;
  const size_t rf = static_cast<size_t>(rows) * f;
  const size_t bd = static_cast<size_t>(S) * d;
  int max_len = 0;
  for (const int len : layout.lengths) max_len = std::max(max_len, len);

  Ensure(&ws.d_h, rd);
  Ensure(&ws.d_tmp, rd);
  Ensure(&ws.d_att, rd);
  Ensure(&ws.d_q, rd);
  Ensure(&ws.d_k, rd);
  Ensure(&ws.d_v, rd);
  Ensure(&ws.d_n1, rd);
  Ensure(&ws.d_n2, rd);
  Ensure(&ws.d_act, rf);
  Ensure(&ws.d_pre, rf);
  Ensure(&ws.d_cls, bd);
  // attention_backward_packed's scratch, which covers
  // attention_backward_cls's 2 * max_len (nn/simd.h).
  Ensure(&ws.d_probs,
         2 * static_cast<size_t>(max_len) * (max_len + head_dim));
  float* d_h = ws.d_h.data();
  float* d_tmp = ws.d_tmp.data();
  float* d_att = ws.d_att.data();
  float* d_q = ws.d_q.data();
  float* d_k = ws.d_k.data();
  float* d_v = ws.d_v.data();
  float* d_n1 = ws.d_n1.data();
  float* d_n2 = ws.d_n2.data();
  float* d_act = ws.d_act.data();
  float* d_pre = ws.d_pre.data();

  // dx += dy * W^T for a weight W [in, out] and dy [m, out]:
  // matmul_backward_a reads W transposed, repacked once into d_wt.
  auto backward_a = [&](const Tensor& weight, const float* dy, float* dx,
                        int m, int in, int out) {
    Ensure(&ws.d_wt, static_cast<size_t>(in) * out);
    RepackHeadsKT(V(weight), in, out, /*num_heads=*/1, ws.d_wt.data());
    kern.matmul_backward_a(dy, ws.d_wt.data(), dx, 0, m, in, out);
  };
  // Linear-site backward over rows of its input `x`: accumulates the input
  // gradient into dx and the weight/bias gradients, for the output
  // gradient dy [m, out].
  auto linear_backward = [&](const PackedRefs::Site& site, const float* x,
                             const float* dy, float* dx, int m, int in,
                             int out) {
    backward_a(site.weight, dy, dx, m, in, out);
    if (float* wg = Gp(site.weight)) {
      kern.matmul_backward_b(x, dy, wg, 0, in, m, in, out);
    }
    if (float* bg = Gp(site.bias)) {
      for (int i = 0; i < m; ++i) {
        kern.add_rows(bg, dy + static_cast<size_t>(i) * out, out);
      }
    }
  };
  // The gradient entering a residual branch of n floats: dy, through its
  // dropout mask when one was drawn.
  auto branch_grad = [&](const float* dy, const std::vector<float>& mask,
                         size_t n) {
    if (ws.tape.masked) {
      std::fill_n(d_tmp, n, 0.0f);
      const float* mk = mask.data();
      for (size_t i = 0; i < n; ++i) d_tmp[i] += dy[i] * mk[i];
    } else {
      std::memcpy(d_tmp, dy, sizeof(float) * n);
    }
  };
  // d_h [rows, d] = src [B, d] on the CLS rows, zero on every other row.
  auto scatter_cls = [&](const float* src) {
    std::fill_n(d_h, rd, 0.0f);
    for (int s = 0; s < S; ++s) {
      std::memcpy(d_h + static_cast<size_t>(layout.offsets[s]) * d,
                  src + static_cast<size_t>(s) * d, sizeof(float) * d);
    }
  };

  // The gradient of ws.cls, the pooled CLS rows: through the projection
  // when present. Accumulated from zero, like every gradient buffer.
  float* d_cls = ws.d_cls.data();
  std::fill_n(d_cls, bd, 0.0f);
  if (view.has_projection) {
    linear_backward(refs.sites[view.num_layers * 6], ws.batch.cls.data(),
                    out_grad, d_cls, S, d, od);
  } else {
    kern.add_rows(d_cls, out_grad, bd);
  }
  if (view.num_layers == 0) scatter_cls(d_cls);

  // Layer backward, top down. The last layer ran CLS-only (see
  // PackedEncodeForward), so every row but the CLS rows has a zero output
  // gradient there: its FFN, LN2, wo and wq backward run over the B CLS
  // rows, its attention backward for the CLS queries only, and only its
  // wk, wv and LN1 backward over every row. Every term this skips is a ±0
  // added to a gradient buffer, which never changes a bit (DESIGN.md,
  // exactness contract). d_y carries the gradient of the block the current
  // step consumes: the layer output on entry, the post-attention residual
  // after the norm2 step — d_cls [B, d] in the last layer, d_h [rows, d]
  // below it — and d_h holds the layer input's after the norm1 step.
  for (int li = view.num_layers - 1; li >= 0; --li) {
    const PackedLayerTape& t = ws.tape.layers[li];
    const PackedRefs::Layer& lr = refs.layers[li];
    const PackedRefs::Site* sites = refs.sites.data() + li * 6;
    const bool cls_only = li + 1 == view.num_layers;
    const int m = cls_only ? S : rows;
    const size_t md = static_cast<size_t>(m) * d;
    const size_t mf = static_cast<size_t>(m) * f;
    float* d_y = cls_only ? d_cls : d_h;

    // Feed-forward branch of the output residual.
    branch_grad(d_y, t.mask_ff, md);
    std::fill_n(d_act, mf, 0.0f);
    linear_backward(sites[5], t.ffa.data(), d_tmp, d_act, m, f, d);
    std::fill_n(d_pre, mf, 0.0f);
    kern.bias_act_backward(t.ffa.data(), d_act, d_pre, Gp(sites[4].bias), m,
                           f);
    std::fill_n(d_n2, md, 0.0f);
    backward_a(sites[4].weight, d_pre, d_n2, m, d, f);
    if (float* wg = Gp(sites[4].weight)) {
      kern.matmul_backward_b(t.n2.data(), d_pre, wg, 0, d, m, d, f);
    }
    kern.layer_norm_rows_backward(t.hm.data(), V(lr.norm2_gamma), d_n2, d_y,
                                  Gp(lr.norm2_gamma), Gp(lr.norm2_beta), m, d,
                                  invd);

    // Attention branch of the post-attention residual.
    branch_grad(d_y, t.mask_att, md);
    std::fill_n(d_att, md, 0.0f);
    linear_backward(sites[3], t.att.data(), d_tmp, d_att, m, d, d);
    std::fill_n(d_q, md, 0.0f);
    std::fill_n(d_k, rd, 0.0f);
    std::fill_n(d_v, rd, 0.0f);
    if (cls_only) {
      // Keys and values transposed per head, into the forward's repack
      // scratch (free once the forward is done).
      float* kbt = ws.batch.kbt.data();
      float* vbt = ws.batch.vb.data();
      RepackHeadsKT(t.k.data(), rows, d, view.num_heads, kbt);
      RepackHeadsKT(t.v.data(), rows, d, view.num_heads, vbt);
      kern.attention_backward_cls(t.q.data(), kbt, vbt, d_att, d_q, d_k, d_v,
                                  layout.offsets.data(),
                                  layout.lengths.data(), S, view.num_heads,
                                  rows, d, scale, ws.d_probs.data());
    } else {
      kern.attention_backward_packed(t.q.data(), t.k.data(), t.v.data(),
                                     d_att, d_q, d_k, d_v,
                                     layout.offsets.data(),
                                     layout.lengths.data(), S,
                                     view.num_heads, d, scale,
                                     ws.d_probs.data());
    }
    std::fill_n(d_n1, rd, 0.0f);
    // The op chain backpropagates the projections in reverse build order:
    // values, keys, queries.
    linear_backward(sites[2], t.n1.data(), d_v, d_n1, rows, d, d);
    linear_backward(sites[1], t.n1.data(), d_k, d_n1, rows, d, d);
    if (cls_only) {
      // wq read n1's CLS rows, gathered (again, into the spent d_tmp): its
      // input gradient, summed from zero into the spent d_att, lands on
      // those rows after wv's and wk's.
      for (int s = 0; s < S; ++s) {
        std::memcpy(d_tmp + static_cast<size_t>(s) * d,
                    t.n1.data() + static_cast<size_t>(layout.offsets[s]) * d,
                    sizeof(float) * d);
      }
      std::fill_n(d_att, bd, 0.0f);
      linear_backward(sites[0], d_tmp, d_q, d_att, S, d, d);
      for (int s = 0; s < S; ++s) {
        kern.add_rows(d_n1 + static_cast<size_t>(layout.offsets[s]) * d,
                      d_att + static_cast<size_t>(s) * d, d);
      }
      // The layer input's residual gradient is zero off the CLS rows.
      scatter_cls(d_cls);
    } else {
      linear_backward(sites[0], t.n1.data(), d_q, d_n1, rows, d, d);
    }
    kern.layer_norm_rows_backward(t.x.data(), V(lr.norm1_gamma), d_n1, d_h,
                                  Gp(lr.norm1_gamma), Gp(lr.norm1_beta), rows,
                                  d, invd);
  }

  // Embedding + positional scatter of the bottom gradient.
  float* pg = Gp(refs.positional);
  float* e1g = Gp(refs.embed1);
  float* e2g = Gp(refs.embed2);
  float* e3g = Gp(refs.embed3);
  const int d1 = view.level1_dim;
  const int d2 = view.level2_dim;
  const int d3 = view.level3_dim;
  const PackedBatch& pb = ws.batch;
  for (int r = 0; r < rows; ++r) {
    const float* g = d_h + static_cast<size_t>(r) * d;
    if (pg != nullptr) {
      kern.add_rows(pg + static_cast<size_t>(layout.positions[r]) * d, g, d);
    }
    if (e1g != nullptr) {
      kern.add_rows(e1g + static_cast<size_t>(pb.ids1[r]) * d1, g, d1);
    }
    if (e2g != nullptr) {
      kern.add_rows(e2g + static_cast<size_t>(pb.ids2[r]) * d2, g + d1, d2);
    }
    if (e3g != nullptr) {
      kern.add_rows(e3g + static_cast<size_t>(pb.ids3[r]) * d3, g + d1 + d2,
                    d3);
    }
  }
}

}  // namespace qpe::nn
