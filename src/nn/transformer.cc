#include "nn/transformer.h"

#include <cassert>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace qpe::nn {

// --- BatchLayout ---

util::StatusOr<BatchLayout> BatchLayout::FromLengthsChecked(
    const std::vector<int>& lengths) {
  // Validate everything (including the total) before building the
  // positions column, so a hostile total can't trigger a huge allocation.
  long long total = 0;
  for (size_t s = 0; s < lengths.size(); ++s) {
    const int len = lengths[s];
    if (len <= 0) {
      return util::InvalidArgumentError(
          "BatchLayout::FromLengths: sequence " + std::to_string(s) +
          " has non-positive length " + std::to_string(len));
    }
    total += len;
    if (total > INT_MAX) {
      return util::InvalidArgumentError(
          "BatchLayout::FromLengths: total_rows overflows int at sequence " +
          std::to_string(s) + " (running total " + std::to_string(total) +
          ")");
    }
  }
  BatchLayout layout;
  layout.lengths = lengths;
  layout.offsets.reserve(lengths.size());
  for (const int len : lengths) {
    layout.offsets.push_back(layout.total_rows);
    layout.total_rows += len;
  }
  layout.positions.reserve(layout.total_rows);
  for (const int len : lengths) {
    for (int t = 0; t < len; ++t) layout.positions.push_back(t);
  }
  return layout;
}

BatchLayout BatchLayout::FromLengths(const std::vector<int>& lengths) {
  util::StatusOr<BatchLayout> layout = FromLengthsChecked(lengths);
  if (!layout.ok()) {
    std::fprintf(stderr, "%s\n", layout.status().message().c_str());
    std::abort();
  }
  return std::move(layout.value());
}

// --- MultiHeadSelfAttention ---

MultiHeadSelfAttention::MultiHeadSelfAttention(int dim, int num_heads,
                                               util::Rng* rng)
    : dim_(dim), num_heads_(num_heads), head_dim_(dim / num_heads) {
  assert(dim % num_heads == 0);
  wq_ = RegisterModule("wq", std::make_unique<Linear>(dim, dim, rng));
  wk_ = RegisterModule("wk", std::make_unique<Linear>(dim, dim, rng));
  wv_ = RegisterModule("wv", std::make_unique<Linear>(dim, dim, rng));
  wo_ = RegisterModule("wo", std::make_unique<Linear>(dim, dim, rng));
}

Tensor MultiHeadSelfAttention::Forward(const Tensor& x) const {
  assert(x.cols() == dim_);
  const Tensor q = wq_->Forward(x);
  const Tensor k = wk_->Forward(x);
  const Tensor v = wv_->Forward(x);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  // Single sequence = a packed batch of one, through the packed engine's
  // attention kernel, so per-plan Encode and the packed batch agree at
  // every dispatch level: under a vector level the kernel's exp is a
  // polynomial (epsilon contract, see simd_kernels_inl.h), which an
  // op-chain softmax would not share. At the scalar level the kernel gives
  // the per-head MatMul/SoftmaxRows/MatMul chain's bits, and the op
  // carries a full backward.
  const Tensor context = MultiHeadAttentionPacked(q, k, v, {0}, {x.rows()},
                                                  num_heads_, scale);
  return wo_->Forward(context);
}

// --- TransformerEncoderLayer ---

TransformerEncoderLayer::TransformerEncoderLayer(int dim, int num_heads,
                                                 int ff_dim, float dropout,
                                                 util::Rng* rng)
    : dropout_(dropout) {
  attention_ = RegisterModule(
      "attention", std::make_unique<MultiHeadSelfAttention>(dim, num_heads, rng));
  norm1_ = RegisterModule("norm1", std::make_unique<LayerNorm>(dim));
  norm2_ = RegisterModule("norm2", std::make_unique<LayerNorm>(dim));
  ff1_ = RegisterModule("ff1", std::make_unique<Linear>(dim, ff_dim, rng));
  ff2_ = RegisterModule("ff2", std::make_unique<Linear>(ff_dim, dim, rng));
}

Tensor TransformerEncoderLayer::Forward(const Tensor& x,
                                        util::Rng* dropout_rng) const {
  const bool use_dropout = training() && dropout_rng != nullptr && dropout_ > 0;
  Tensor attended = attention_->Forward(norm1_->Forward(x));
  if (use_dropout) attended = Dropout(attended, dropout_, dropout_rng);
  const Tensor h = Add(x, attended);
  const Tensor pre = ff1_->Forward(norm2_->Forward(h));
  Tensor ff = ff2_->Forward(Relu(pre));
  if (use_dropout) ff = Dropout(ff, dropout_, dropout_rng);
  return Add(h, ff);
}

// --- TransformerEncoder ---

TransformerEncoder::TransformerEncoder(int dim, int num_heads, int ff_dim,
                                       int num_layers, int max_len,
                                       float dropout, util::Rng* rng)
    : dim_(dim), max_len_(max_len) {
  positional_ = RegisterParameter(
      "positional", Tensor::Gaussian(max_len, dim, 0.02f, rng));
  for (int i = 0; i < num_layers; ++i) {
    layers_.push_back(RegisterModule(
        "layer" + std::to_string(i),
        std::make_unique<TransformerEncoderLayer>(dim, num_heads, ff_dim,
                                                  dropout, rng)));
  }
}

Tensor TransformerEncoder::Forward(const Tensor& x,
                                   util::Rng* dropout_rng) const {
  assert(x.cols() == dim_);
  const int t = std::min(x.rows(), max_len_);
  Tensor h = x.rows() <= max_len_ ? x : SliceRows(x, 0, max_len_);
  h = Add(h, SliceRows(positional_, 0, t));
  for (const TransformerEncoderLayer* layer : layers_) {
    h = layer->Forward(h, dropout_rng);
  }
  return h;
}

// --- LSTM ---

Lstm::Lstm(int input_dim, int hidden_dim, util::Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  input_gates_ = RegisterModule(
      "input_gates", std::make_unique<Linear>(input_dim, 4 * hidden_dim, rng));
  hidden_gates_ = RegisterModule(
      "hidden_gates",
      std::make_unique<Linear>(hidden_dim, 4 * hidden_dim, rng));
}

Tensor Lstm::ForwardAll(const Tensor& x) const {
  assert(x.cols() == input_dim_);
  const int t_len = x.rows();
  Tensor h = Tensor::Zeros(1, hidden_dim_);
  Tensor c = Tensor::Zeros(1, hidden_dim_);
  std::vector<Tensor> outputs;
  outputs.reserve(t_len);
  // Precompute the input projections for the whole sequence at once.
  const Tensor gates_x = input_gates_->Forward(x);  // [T, 4H]
  for (int t = 0; t < t_len; ++t) {
    const Tensor gx = SliceRows(gates_x, t, 1);
    const Tensor gates = Add(gx, hidden_gates_->Forward(h));
    const Tensor i = Sigmoid(SliceCols(gates, 0, hidden_dim_));
    const Tensor f = Sigmoid(SliceCols(gates, hidden_dim_, hidden_dim_));
    const Tensor g = Tanh(SliceCols(gates, 2 * hidden_dim_, hidden_dim_));
    const Tensor o = Sigmoid(SliceCols(gates, 3 * hidden_dim_, hidden_dim_));
    c = Add(Mul(f, c), Mul(i, g));
    h = Mul(o, Tanh(c));
    outputs.push_back(h);
  }
  return ConcatRows(outputs);
}

Tensor Lstm::Forward(const Tensor& x) const {
  const Tensor all = ForwardAll(x);
  return SliceRows(all, all.rows() - 1, 1);
}

}  // namespace qpe::nn
