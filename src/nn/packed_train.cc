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
    const size_t rd = static_cast<size_t>(layout.total_rows) * d;
    if (tape.layers.size() < static_cast<size_t>(num_layers)) {
      tape.layers.resize(num_layers);
    }
    for (int li = 0; li < num_layers; ++li) {
      Ensure(&tape.layers[li].mask_att, rd);
      Ensure(&tape.layers[li].mask_ff, rd);
    }
    const float keep = 1.0f / (1.0f - dropout);
    const int S = layout.size();
    for (int ci = 0; ci < S; ++ci) {
      const int s = S - 1 - ci;
      const size_t base = static_cast<size_t>(layout.offsets[s]) * d;
      const size_t count = static_cast<size_t>(layout.lengths[s]) * d;
      for (int li = 0; li < num_layers; ++li) {
        float* ma = tape.layers[li].mask_att.data() + base;
        for (size_t i = 0; i < count; ++i) {
          ma[i] = rng->Bernoulli(dropout) ? 0.0f : keep;
        }
        float* mf = tape.layers[li].mask_ff.data() + base;
        for (size_t i = 0; i < count; ++i) {
          mf[i] = rng->Bernoulli(dropout) ? 0.0f : keep;
        }
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

  // Linear-site backward over rows of its input `x`: accumulates the input
  // gradient into dx and the weight/bias gradients, for the output
  // gradient dy [m, out].
  auto linear_backward = [&](const PackedRefs::Site& site, const float* x,
                             const float* dy, float* dx, int m, int in,
                             int out) {
    kern.matmul_backward_a(dy, V(site.weight), dx, 0, m, in, out);
    if (float* wg = Gp(site.weight)) {
      kern.matmul_backward_b(x, dy, wg, 0, in, m, in, out);
    }
    if (float* bg = Gp(site.bias)) {
      for (int i = 0; i < m; ++i) {
        kern.add_rows(bg, dy + static_cast<size_t>(i) * out, out);
      }
    }
  };
  // The gradient entering a residual branch, through its dropout mask when
  // one was drawn.
  auto branch_grad = [&](const std::vector<float>& mask) {
    if (ws.tape.masked) {
      std::fill_n(d_tmp, rd, 0.0f);
      const float* m = mask.data();
      for (size_t i = 0; i < rd; ++i) d_tmp[i] += d_h[i] * m[i];
    } else {
      std::memcpy(d_tmp, d_h, sizeof(float) * rd);
    }
  };

  // Projection backward (when present), then scatter each sequence's
  // pooled-CLS gradient back onto its first packed row.
  const float* d_cls_rows = out_grad;
  if (view.has_projection) {
    Ensure(&ws.d_cls, static_cast<size_t>(S) * d);
    float* d_cls = ws.d_cls.data();
    std::fill_n(d_cls, static_cast<size_t>(S) * d, 0.0f);
    linear_backward(refs.sites[view.num_layers * 6], ws.batch.cls.data(),
                    out_grad, d_cls, S, d, od);
    d_cls_rows = d_cls;
  }
  std::fill_n(d_h, rd, 0.0f);
  for (int s = 0; s < S; ++s) {
    kern.add_rows(d_h + static_cast<size_t>(layout.offsets[s]) * d,
                  d_cls_rows + static_cast<size_t>(s) * d, d);
  }

  // Layer backward, top down. d_h carries the gradient of the block the
  // current step consumes: the layer output on entry, the post-attention
  // residual after the norm2 step, the layer input after the norm1 step.
  for (int li = view.num_layers - 1; li >= 0; --li) {
    const PackedLayerTape& t = ws.tape.layers[li];
    const PackedRefs::Layer& lr = refs.layers[li];
    const PackedRefs::Site* sites = refs.sites.data() + li * 6;

    // Feed-forward branch of the output residual.
    branch_grad(t.mask_ff);
    std::fill_n(d_act, rf, 0.0f);
    linear_backward(sites[5], t.ffa.data(), d_tmp, d_act, rows, f, d);
    std::fill_n(d_pre, rf, 0.0f);
    kern.bias_act_backward(t.ffa.data(), d_act, d_pre, Gp(sites[4].bias),
                           rows, f);
    std::fill_n(d_n2, rd, 0.0f);
    kern.matmul_backward_a(d_pre, V(sites[4].weight), d_n2, 0, rows, d, f);
    if (float* wg = Gp(sites[4].weight)) {
      kern.matmul_backward_b(t.n2.data(), d_pre, wg, 0, d, rows, d, f);
    }
    kern.layer_norm_rows_backward(t.hm.data(), V(lr.norm2_gamma), d_n2, d_h,
                                  Gp(lr.norm2_gamma), Gp(lr.norm2_beta), rows,
                                  d, invd);

    // Attention branch of the post-attention residual.
    branch_grad(t.mask_att);
    std::fill_n(d_att, rd, 0.0f);
    linear_backward(sites[3], t.att.data(), d_tmp, d_att, rows, d, d);
    std::fill_n(d_q, rd, 0.0f);
    std::fill_n(d_k, rd, 0.0f);
    std::fill_n(d_v, rd, 0.0f);
    kern.attention_backward_packed(t.q.data(), t.k.data(), t.v.data(), d_att,
                                   d_q, d_k, d_v, layout.offsets.data(),
                                   layout.lengths.data(), S, view.num_heads,
                                   d, scale);
    std::fill_n(d_n1, rd, 0.0f);
    // The op chain backpropagates the projections in reverse build order:
    // values, keys, queries.
    linear_backward(sites[2], t.n1.data(), d_v, d_n1, rows, d, d);
    linear_backward(sites[1], t.n1.data(), d_k, d_n1, rows, d, d);
    linear_backward(sites[0], t.n1.data(), d_q, d_n1, rows, d, d);
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
