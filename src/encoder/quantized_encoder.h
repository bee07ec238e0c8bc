#ifndef QPE_ENCODER_QUANTIZED_ENCODER_H_
#define QPE_ENCODER_QUANTIZED_ENCODER_H_

#include <span>
#include <vector>

#include "encoder/structure_encoder.h"
#include "nn/packed_batch.h"
#include "nn/quant.h"
#include "nn/transformer.h"

namespace qpe::encoder {

// Int8-quantized serving twin of a trained TransformerPlanEncoder.
//
// Construction copies the fp32 weights out of the trained encoder (via its
// packed site table, TransformerPlanEncoder::packed_refs), replays the
// packed forward over a held-out calibration sample to record each linear
// layer's input range
// (nn::QuantCalibrator, static per-tensor activation scales), and quantizes
// every Linear — q/k/v/output projections, both feed-forward matrices, and
// the optional output projection — to per-channel symmetric int8.
//
// Inference is graph-free: raw contiguous float buffers driven directly by
// the nn::simd kernel table (layer norm, packed attention, softmax stay
// fp32; the GEMMs run int8 x int8 -> int32). No autograd nodes, no arena
// traffic, no backward closures — this is an inference-only engine, so
// Encode ignores its dropout RNG. Results are deterministic and
// batch-invariant: the int8 GEMM is exact integer arithmetic and every
// other kernel is row-independent, so a plan's embedding is bit-identical
// whether encoded alone or inside any batch, at any SIMD level.
//
// Accuracy: embeddings differ from the fp32 encoder's by quantization
// noise. tests/simd_quant_test.cc gates the drift (max embedding cosine
// distance and a kNN neighbor-agreement check against the fp32 encoder);
// EXPERIMENTS.md records the measured deltas next to the speedup.
class QuantizedPlanEncoder : public PlanSequenceEncoder {
 public:
  // `fp32` must be fully trained; `calibration` must be non-empty and
  // should be held out from training. The new encoder is independent of
  // `fp32` once constructed.
  QuantizedPlanEncoder(const TransformerPlanEncoder& fp32,
                       std::span<const plan::PlanNode* const> calibration);

  nn::Tensor Encode(const plan::PlanNode& root,
                    util::Rng* dropout_rng) const override;
  std::vector<nn::Tensor> EncodeBatch(
      std::span<const plan::PlanNode* const> plans,
      util::Rng* dropout_rng) const override;
  int output_dim() const override;

  // Quantized GEMM sites: 6 per transformer layer (wq, wk, wv, wo, ff1,
  // ff2) plus the output projection when present.
  int num_quantized_sites() const { return static_cast<int>(sites_.size()); }
  // Calibrated static input scale of each site, in site order.
  std::vector<float> input_scales() const;

 private:
  StructureEncoderConfig config_;
  // Private copies of the fp32 encoder's non-GEMM parameters (embeddings,
  // positional table, layer norms; no sites), so this encoder stands alone.
  nn::PackedRefs params_;
  std::vector<nn::QuantizedLinear> sites_;  // layer-major, then projection
  // Model view over params_, consumed by the shared packed engine
  // (nn::PackedEncodeForward). The copies never move after construction,
  // so the pointers are bound once and stay valid.
  nn::PackedModelView view_;
};

}  // namespace qpe::encoder

#endif  // QPE_ENCODER_QUANTIZED_ENCODER_H_
