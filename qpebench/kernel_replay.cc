#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/simd.h"
#include "nn/transformer.h"
#include "stats.h"
#include "workloads.h"

namespace qpebench {

namespace {

std::vector<float> Filled(size_t n, uint64_t salt) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    // Deterministic values in [-0.5, 0.5).
    v[i] = static_cast<float>(Mix64(salt * 0x9E37ULL + i) >> 40) /
               static_cast<float>(1 << 24) -
           0.5f;
  }
  return v;
}

double GemmFlops(double m, double k, double n) { return 2.0 * m * k * n; }
double GemmBytes(double m, double k, double n) {
  return 4.0 * (m * k + k * n + n + m * n);
}

}  // namespace

KernelReplay ReplayKernels(const std::vector<std::vector<int>>& batch_lengths,
                           const qpe::encoder::StructureEncoderConfig& config,
                           int repeats) {
  KernelReplay out;
  const qpe::nn::simd::Kernels& kern = qpe::nn::simd::K();
  const int d = config.ModelDim();
  const int f = config.ff_dim;
  const int heads = config.num_heads;
  const float invd = 1.0f / static_cast<float>(d);
  const float scale =
      1.0f / std::sqrt(static_cast<float>(d / std::max(heads, 1)));

  // Synthetic weights of the model's shapes: one embedding row per level
  // (every replayed id is 0) and the positional table over max_len.
  const std::vector<float> e1 = Filled(config.level1_dim, 1);
  const std::vector<float> e2 = Filled(config.level2_dim, 2);
  const std::vector<float> e3 = Filled(config.level3_dim, 3);
  const std::vector<float> pos =
      Filled(static_cast<size_t>(config.max_len) * d, 4);
  const std::vector<float> gamma = Filled(d, 5), beta = Filled(d, 6);
  const std::vector<float> w_dd = Filled(static_cast<size_t>(d) * d, 7);
  const std::vector<float> w_df = Filled(static_cast<size_t>(d) * f, 8);
  const std::vector<float> w_fd = Filled(static_cast<size_t>(f) * d, 9);
  const std::vector<float> b_d = Filled(d, 10), b_f = Filled(f, 11);

  for (const std::vector<int>& lengths : batch_lengths) {
    if (lengths.empty()) continue;
    const qpe::nn::BatchLayout layout =
        qpe::nn::BatchLayout::FromLengths(lengths);
    const int rows = layout.total_rows;
    const int seqs = layout.size();
    const int max_len = *std::max_element(lengths.begin(), lengths.end());
    const size_t rd = static_cast<size_t>(rows) * d;
    const std::vector<int> ids(rows, 0);
    std::vector<float> h(rd), normed(rd), q = Filled(rd, 12),
                                          kbt = Filled(rd, 13),
                                          vb = Filled(rd, 14), ctx(rd);
    std::vector<float> ff(static_cast<size_t>(rows) * f);
    std::vector<float> probs(static_cast<size_t>(max_len) * max_len);

    double attention_flops = 0;
    for (const int len : lengths) {
      attention_flops += 4.0 * len * static_cast<double>(len) * d;
    }
    for (int rep = 0; rep < repeats; ++rep) {
      double t = WallSeconds();
      kern.embed_gather_add(e1.data(), e2.data(), e3.data(), pos.data(),
                            ids.data(), ids.data(), ids.data(),
                            layout.positions.data(), h.data(), rows,
                            config.level1_dim, config.level2_dim,
                            config.level3_dim);
      out.embed_gather_us += (WallSeconds() - t) * 1e6;
      for (int layer = 0; layer < config.num_layers; ++layer) {
        t = WallSeconds();
        kern.layer_norm_rows(h.data(), gamma.data(), beta.data(),
                             normed.data(), rows, d, invd);
        out.layer_norm_us += (WallSeconds() - t) * 1e6;

        t = WallSeconds();
        kern.linear_bias_act(normed.data(), w_dd.data(), b_d.data(), q.data(),
                             rows, d, d, 0);
        kern.linear_bias_act(normed.data(), w_dd.data(), b_d.data(),
                             kbt.data(), rows, d, d, 0);
        kern.linear_bias_act(normed.data(), w_dd.data(), b_d.data(), vb.data(),
                             rows, d, d, 0);
        out.gemm_us += (WallSeconds() - t) * 1e6;

        t = WallSeconds();
        kern.attention_forward_blocked(
            q.data(), kbt.data(), vb.data(), ctx.data(), layout.offsets.data(),
            layout.lengths.data(), seqs, heads, rows, d, scale, probs.data());
        out.attention_us += (WallSeconds() - t) * 1e6;

        t = WallSeconds();
        kern.linear_bias_act(ctx.data(), w_dd.data(), b_d.data(),
                             normed.data(), rows, d, d, 0);
        out.gemm_us += (WallSeconds() - t) * 1e6;

        t = WallSeconds();
        kern.layer_norm_rows(h.data(), gamma.data(), beta.data(),
                             normed.data(), rows, d, invd);
        out.layer_norm_us += (WallSeconds() - t) * 1e6;

        t = WallSeconds();
        kern.linear_bias_act(normed.data(), w_df.data(), b_f.data(), ff.data(),
                             rows, d, f, 1);
        kern.linear_bias_act(ff.data(), w_fd.data(), b_d.data(), normed.data(),
                             rows, f, d, 0);
        out.gemm_us += (WallSeconds() - t) * 1e6;
      }
      ++out.batches;
      const double m = rows;
      out.gemm_flops += config.num_layers *
                        (4 * GemmFlops(m, d, d) + GemmFlops(m, d, f) +
                         GemmFlops(m, f, d));
      out.gemm_bytes += config.num_layers *
                        (4 * GemmBytes(m, d, d) + GemmBytes(m, d, f) +
                         GemmBytes(m, f, d));
      out.attention_flops += config.num_layers * attention_flops;
    }
  }
  return out;
}

void ReportKernelReplay(const KernelReplay& replay, Report* report) {
  const double b = replay.batches > 0 ? static_cast<double>(replay.batches) : 1;
  report->Set("nn.gemm_us_per_batch", replay.gemm_us / b);
  report->Set("nn.gemm_gflops", replay.gemm_us > 0
                                    ? replay.gemm_flops / (replay.gemm_us * 1e3)
                                    : 0);
  report->Set("nn.gemm_mflop_per_batch", replay.gemm_flops / b / 1e6);
  report->Set("nn.gemm_mbytes_per_batch", replay.gemm_bytes / b / 1e6);
  report->Set("nn.attention_us_per_batch", replay.attention_us / b);
  report->Set("nn.attention_mflop_per_batch", replay.attention_flops / b / 1e6);
  report->Set("nn.layer_norm_us_per_batch", replay.layer_norm_us / b);
  report->Set("nn.embed_gather_us_per_batch", replay.embed_gather_us / b);
  report->Note("nn kernel replay: " + std::to_string(replay.batches) +
               " batch replays through nn::simd::K(); FLOPs and bytes are "
               "computed from the batch shapes, not measured");
}

}  // namespace qpebench
