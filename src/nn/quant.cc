#include "nn/quant.h"

#include <cassert>
#include <cmath>
#include <cstring>

#include "nn/simd.h"

namespace qpe::nn {

int8_t QuantizeValue(float x, float inv_scale) {
  // Round to nearest, ties away from zero — matches the reference
  // quantizers of the usual int8 toolchains. Spelled trunc(t +
  // copysign(0.5, t)) instead of std::round so every step is a plain IEEE
  // op the vector quantize_buffer lanes can reproduce bit for bit.
  const float t = x * inv_scale;
  const float scaled = std::trunc(t + std::copysign(0.5f, t));
  if (scaled >= 127.0f) return 127;
  if (scaled <= -127.0f) return -127;
  return static_cast<int8_t>(scaled);
}

void QuantCalibrator::Observe(const float* x, size_t n) {
  float m = absmax_;
  for (size_t i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > m) m = a;
  }
  absmax_ = m;
}

float QuantCalibrator::scale() const {
  const float s = absmax_ / 127.0f;
  return s > kMinQuantScale ? s : kMinQuantScale;
}

QuantizedLinear QuantizedLinear::FromLinear(const Tensor& weight,
                                            const Tensor& bias,
                                            float input_scale) {
  const int in = weight.rows();
  const int out = weight.cols();
  assert(bias.rows() == 1 && bias.cols() == out);
  QuantizedLinear q;
  q.in_ = in;
  q.out_ = out;
  q.input_scale_ = input_scale > kMinQuantScale ? input_scale : kMinQuantScale;
  // Channel-major [out][in] staging for the tile packer.
  std::vector<int8_t> channels(static_cast<size_t>(out) * in);
  q.weight_scale_.resize(out);
  q.bias_.assign(bias.value().begin(), bias.value().end());
  const std::vector<float>& w = weight.value();  // [in, out] row-major
  for (int j = 0; j < out; ++j) {
    float absmax = 0.0f;
    for (int p = 0; p < in; ++p) {
      const float a = std::fabs(w[static_cast<size_t>(p) * out + j]);
      if (a > absmax) absmax = a;
    }
    const float scale = absmax / 127.0f;
    const float safe = scale > kMinQuantScale ? scale : kMinQuantScale;
    q.weight_scale_[j] = safe;
    const float inv = 1.0f / safe;
    int8_t* channel = channels.data() + static_cast<size_t>(j) * in;
    for (int p = 0; p < in; ++p) {
      channel[p] = QuantizeValue(w[static_cast<size_t>(p) * out + j], inv);
    }
  }
  // Pack the weight tiles once here; the serve path reads only the tiles.
  q.k_pad_ = simd::Int8PackedKPad(in);
  q.packed_tiles_.resize(simd::Int8PackedSize(in, out));
  simd::PackInt8WeightTiles(channels.data(), in, out, q.packed_tiles_.data());
  return q;
}

void QuantizedLinear::Forward(const float* x, int m, float* y,
                              std::vector<int8_t>* qx_scratch,
                              bool relu) const {
  assert(in_ > 0 && out_ > 0);
  const float inv = 1.0f / input_scale_;
  const auto& kern = simd::K();
  // Activations quantized into [m, k_pad] rows with zeroed k tails (the
  // padding contributes exact zeros to the integer dots).
  qx_scratch->resize(static_cast<size_t>(m) * k_pad_);
  if (in_ == k_pad_) {
    kern.quantize_buffer(x, m * in_, inv, qx_scratch->data());
  } else {
    for (int i = 0; i < m; ++i) {
      int8_t* row = qx_scratch->data() + static_cast<size_t>(i) * k_pad_;
      kern.quantize_buffer(x + static_cast<size_t>(i) * in_, in_, inv, row);
      std::memset(row + in_, 0, static_cast<size_t>(k_pad_ - in_));
    }
  }
  kern.int8_gemm_packed(qx_scratch->data(), packed_tiles_.data(), y, m, in_,
                        out_, input_scale_, weight_scale_.data(),
                        bias_.data(), relu ? 1 : 0);
}

void QuantizedLinear::ForwardPrequantized(
    int m, float* y, const std::vector<int8_t>& qx_scratch) const {
  assert(in_ > 0 && out_ > 0);
  assert(qx_scratch.size() == static_cast<size_t>(m) * k_pad_);
  simd::K().int8_gemm_packed(qx_scratch.data(), packed_tiles_.data(), y, m,
                             in_, out_, input_scale_, weight_scale_.data(),
                             bias_.data(), /*relu=*/0);
}

}  // namespace qpe::nn
