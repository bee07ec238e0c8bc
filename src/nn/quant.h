#ifndef QPE_NN_QUANT_H_
#define QPE_NN_QUANT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/tensor.h"

namespace qpe::nn {

// Post-training int8 quantization primitives for the serving path.
//
// Scheme: symmetric linear quantization, q = clamp(round(x / scale), -127,
// 127), zero point 0. Weights are quantized per output channel (each output
// column of a Linear gets its own scale, from the column's absmax);
// activations are quantized per tensor with a STATIC scale calibrated
// offline on a held-out plan sample (QuantCalibrator). Static activation
// scales keep inference deterministic: the quantized engine does no
// data-dependent range analysis at serve time, so a plan always produces
// the same embedding regardless of what else is in its batch.
//
// The matmul itself runs in int8 x int8 -> int32 over pre-packed weight
// tiles (simd::Kernels::int8_gemm_packed, exact integer accumulation,
// bit-identical across SIMD levels). Its epilogue rescales each int32
// total to float by the one input_scale, then weight_scale[channel], adds
// the float bias and, for a ReLU layer, clamps at zero.

// Smallest representable scale: guards against absmax == 0 (a dead channel
// or an all-zero calibration set) producing inf/NaN on dequantize.
inline constexpr float kMinQuantScale = 1e-10f;

// Rounds to nearest (ties away from zero) and saturates to [-127, 127].
// Symmetric range: -128 is never produced, so negation stays in range and
// the AVX2/NEON widening paths need no special case. Computed as
// trunc(t + copysign(0.5, t)) — exact IEEE ops only, so the vectorized
// quantize_buffer kernel lanes reproduce it bit for bit.
int8_t QuantizeValue(float x, float inv_scale);

// Streams activation tensors during offline calibration and yields the
// static per-tensor scale. Observe() is absmax tracking, so the order of
// observations does not matter and calibration is deterministic.
class QuantCalibrator {
 public:
  void Observe(const float* x, size_t n);
  float absmax() const { return absmax_; }
  // absmax / 127, floored at kMinQuantScale.
  float scale() const;

 private:
  float absmax_ = 0.0f;
};

// An int8-quantized Linear layer: per-channel symmetric weights, static
// per-tensor input scale, float bias. Immutable after construction.
class QuantizedLinear {
 public:
  QuantizedLinear() = default;

  // Quantizes a trained fp32 Linear. `weight` is [in, out] (the layout
  // nn::Linear trains), `bias` is [1, out]; `input_scale` comes from a
  // QuantCalibrator run over this layer's inputs. Weights are packed once
  // into the tiled layout the int8 GEMM kernel consumes
  // (simd::PackInt8WeightTiles).
  static QuantizedLinear FromLinear(const Tensor& weight, const Tensor& bias,
                                    float input_scale);

  // y[m, out] = act(dequant(int8gemm(quant(x), W)) + bias), with x
  // [m, in] row-major and act the `> 0` clamp when `relu` is set (the
  // ff1 site), identity otherwise. `qx_scratch` holds the quantized
  // activations between calls (resized as needed); passing the same
  // scratch across calls makes the hot loop allocation-free once warm.
  // Thread-safe for concurrent callers with distinct scratch buffers.
  void Forward(const float* x, int m, float* y,
               std::vector<int8_t>* qx_scratch, bool relu) const;

  // Forward over activations a previous Forward already quantized into
  // `qx_scratch` — valid only when that call saw the same x, m, and an
  // identical input_scale() (then the quantized bytes this layer would
  // produce are bit-identical, so skipping the quantize pass cannot change
  // the result). The packed engine's q/k/v projections share one
  // calibrated input, which makes two of their three quantize passes
  // redundant. No activation: those sites are linear.
  void ForwardPrequantized(int m, float* y,
                           const std::vector<int8_t>& qx_scratch) const;

  int in_features() const { return in_; }
  int out_features() const { return out_; }
  float input_scale() const { return input_scale_; }

 private:
  int in_ = 0;
  int out_ = 0;
  int k_pad_ = 0;  // simd::Int8PackedKPad(in_)
  float input_scale_ = 1.0f;
  std::vector<int16_t> packed_tiles_;  // simd::PackInt8WeightTiles layout
  std::vector<float> weight_scale_;   // [out]
  std::vector<float> bias_;           // [out]
};

}  // namespace qpe::nn

#endif  // QPE_NN_QUANT_H_
