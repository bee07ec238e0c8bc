#include "encoder/quantized_encoder.h"

#include <cassert>

#include "nn/arena.h"
#include "nn/packed_forward.h"

namespace qpe::encoder {

QuantizedPlanEncoder::QuantizedPlanEncoder(
    const TransformerPlanEncoder& fp32,
    std::span<const plan::PlanNode* const> calibration)
    : config_(fp32.config()) {
  assert(!calibration.empty());
  const nn::PackedRefs& refs = fp32.packed_refs();
  // The copies are long-lived: build them outside any active arena.
  nn::ArenaScope noarena(nullptr);
  auto copy = [](const nn::Tensor& t) {
    return nn::Tensor::FromVector(t.rows(), t.cols(), t.value());
  };
  params_.embed1 = copy(refs.embed1);
  params_.embed2 = copy(refs.embed2);
  params_.embed3 = copy(refs.embed3);
  params_.positional = copy(refs.positional);
  for (const nn::PackedRefs::Layer& l : refs.layers) {
    params_.layers.push_back({copy(l.norm1_gamma), copy(l.norm1_beta),
                              copy(l.norm2_gamma), copy(l.norm2_beta)});
  }
  BindPackedView(config_, params_, &view_);

  // Calibration: replay the packed forward with the fp32 GEMMs, recording
  // every site's input absmax over every row of every layer. The GEMM is
  // the fp32 encoder's own, so the observed ranges are exactly the ranges
  // it produces. The engine runs its last layer CLS-only, so the layers
  // are replayed with a copy of the last one appended: every real layer
  // then runs over every row, and the copy (sites L*6 .. L*6+5, replaying
  // the last layer's GEMMs) is computed but not observed. wq, wk and wv
  // thus observe the same rows of the same n1 in every layer, and their
  // scales agree exactly, as the int8 engine's shared-quantization guard
  // below requires. The projection reads the pooled CLS rows; its input
  // is observed on the engine's own forward.
  std::vector<nn::QuantCalibrator> calibrators(refs.sites.size());
  nn::PackedBatch& ws = nn::PackedBatch::ThreadLocal();
  PackPlansColumns(calibration, config_.max_len, &ws);
  const nn::Fp32Linear fp32_linear{&refs};
  const int layer_sites = view_.num_layers * 6;
  if (view_.has_projection) {
    auto projection_tap = [&](int site, const float* x, int m, int in,
                              int out, float* y, bool relu) {
      if (site == layer_sites) {
        calibrators[site].Observe(x, static_cast<size_t>(m) * in);
      }
      fp32_linear(site, x, m, in, out, y, relu);
    };
    (void)nn::PackedEncodeForward(view_, ws, projection_tap);
  }
  if (view_.num_layers > 0) {
    nn::PackedModelView every_row = view_;
    every_row.layers.push_back(view_.layers.back());
    ++every_row.num_layers;
    every_row.has_projection = false;
    every_row.output_dim = every_row.model_dim;
    auto layer_tap = [&](int site, const float* x, int m, int in, int out,
                         float* y, bool relu) {
      if (site < layer_sites) {
        calibrators[site].Observe(x, static_cast<size_t>(m) * in);
        fp32_linear(site, x, m, in, out, y, relu);
      } else {
        fp32_linear(site - 6, x, m, in, out, y, relu);
      }
    };
    (void)nn::PackedEncodeForward(every_row, ws, layer_tap);
  }

  sites_.reserve(refs.sites.size());
  for (size_t s = 0; s < refs.sites.size(); ++s) {
    sites_.push_back(nn::QuantizedLinear::FromLinear(
        refs.sites[s].weight, refs.sites[s].bias, calibrators[s].scale()));
  }
}

int QuantizedPlanEncoder::output_dim() const { return view_.output_dim; }

std::vector<float> QuantizedPlanEncoder::input_scales() const {
  std::vector<float> scales;
  scales.reserve(sites_.size());
  for (const nn::QuantizedLinear& site : sites_) {
    scales.push_back(site.input_scale());
  }
  return scales;
}

std::vector<nn::Tensor> QuantizedPlanEncoder::EncodeBatch(
    std::span<const plan::PlanNode* const> plans, util::Rng* dropout_rng) const {
  (void)dropout_rng;  // inference-only engine: no dropout, ever
  if (plans.empty()) return {};
  nn::PackedBatch& ws = nn::PackedBatch::ThreadLocal();
  PackPlansColumns(plans, config_.max_len, &ws);
  // The engine calls wq, wk, wv back to back on the same normed buffer
  // (the CLS-only last layer: wk, wv, then wq on the gathered CLS rows),
  // and the three sites calibrated on identical inputs, so their static
  // scales agree — wk/wv can then reuse wq's (or wv wk's) quantized
  // activations bit-identically instead of re-quantizing. The guard is
  // conservative: consecutive site ids (so an intervening call can never
  // have rewritten the buffer), same pointer/shape, and exactly equal
  // scales.
  int last_site = -1;
  const float* last_x = nullptr;
  int last_m = 0, last_in = 0;
  auto int8_linear = [&](int site, const float* x, int m, int in,
                         [[maybe_unused]] int out, float* y, bool relu) {
    assert(sites_[site].in_features() == in &&
           sites_[site].out_features() == out);
    const bool reuse_qx =
        site == last_site + 1 && (site % 6 == 1 || site % 6 == 2) &&
        x == last_x && m == last_m && in == last_in &&
        sites_[site].input_scale() == sites_[last_site].input_scale();
    // ff1's activation (relu) runs in the GEMM epilogue: the op chain's
    // exact `> 0` clamp. wk and wv, the only sites that reuse, are linear.
    if (reuse_qx) {
      sites_[site].ForwardPrequantized(m, y, ws.qx);
    } else {
      sites_[site].Forward(x, m, y, &ws.qx, relu);
    }
    last_site = site;
    last_x = x;
    last_m = m;
    last_in = in;
  };
  const float* cls = nn::PackedEncodeForward(view_, ws, int8_linear);
  // Result tensors escape to the caller: construct them outside any active
  // arena so steady-state serving batches create zero arena traffic.
  nn::ArenaScope noarena(nullptr);
  const int od = output_dim();
  std::vector<nn::Tensor> out;
  out.reserve(plans.size());
  for (int i = 0; i < ws.layout.size(); ++i) {
    const float* row = cls + static_cast<size_t>(i) * od;
    out.push_back(nn::Tensor::FromVector(
        1, od, std::vector<float>(row, row + od)));
  }
  return out;
}

nn::Tensor QuantizedPlanEncoder::Encode(const plan::PlanNode& root,
                                        util::Rng* dropout_rng) const {
  const plan::PlanNode* plans[] = {&root};
  return EncodeBatch(plans, dropout_rng)[0];
}

std::unique_ptr<QuantizedPlanEncoder> TransformerPlanEncoder::Quantize(
    std::span<const plan::PlanNode* const> calibration) const {
  return std::make_unique<QuantizedPlanEncoder>(*this, calibration);
}

}  // namespace qpe::encoder
