#include "nn/module.h"

#include <cassert>
#include <cmath>

namespace qpe::nn {

std::vector<Tensor> Module::Parameters() const { return CachedParameters(); }

const std::vector<Tensor>& Module::CachedParameters() const {
  if (!param_cache_valid_) {
    param_cache_.clear();
    CollectParams(&param_cache_);
    param_cache_valid_ = true;
  }
  return param_cache_;
}

void Module::CollectParams(std::vector<Tensor>* out) const {
  // Same traversal order as CollectNamed, minus the name building.
  for (const auto& [name, tensor] : params_) out->push_back(tensor);
  for (const auto& [name, submodule] : submodules_) {
    submodule->CollectParams(out);
  }
}

std::vector<std::pair<std::string, Tensor>> Module::NamedParameters() const {
  std::vector<std::pair<std::string, Tensor>> out;
  CollectNamed("", &out);
  return out;
}

void Module::CollectNamed(
    const std::string& prefix,
    std::vector<std::pair<std::string, Tensor>>* out) const {
  for (const auto& [name, tensor] : params_) {
    out->emplace_back(prefix + name, tensor);
  }
  for (const auto& [name, submodule] : submodules_) {
    submodule->CollectNamed(prefix + name + ".", out);
  }
}

void Module::SetTraining(bool training) {
  training_ = training;
  for (auto& [name, submodule] : submodules_) submodule->SetTraining(training);
}

void Module::ZeroGrad() {
  for (const Tensor& p : CachedParameters()) p.ZeroGrad();
}

Tensor& Module::RegisterParameter(const std::string& name, Tensor tensor) {
  params_.emplace_back(name, std::move(tensor));
  param_cache_valid_ = false;
  return params_.back().second;
}

// --- Linear ---

Linear::Linear(int in_features, int out_features, util::Rng* rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(RegisterParameter("weight",
                                Tensor::Xavier(in_features, out_features, rng))),
      bias_(RegisterParameter("bias",
                              Tensor::Zeros(1, out_features,
                                            /*requires_grad=*/true))) {}

Tensor Linear::Forward(const Tensor& x) const {
  assert(x.cols() == in_features_);
  // One fused graph node; bit-identical to Add(MatMul(x, weight_), bias_).
  return LinearRowBias(x, weight_, bias_);
}

Tensor Linear::ForwardRelu(const Tensor& x) const {
  assert(x.cols() == in_features_);
  // One fused graph node; bit-identical to Relu(Forward(x)) forward and
  // backward (see LinearRowBiasRelu in nn/tensor.h).
  return LinearRowBiasRelu(x, weight_, bias_);
}

// --- Embedding ---

Embedding::Embedding(int vocab_size, int dim, util::Rng* rng)
    : dim_(dim),
      table_(RegisterParameter(
          "table", Tensor::Gaussian(vocab_size, dim, 0.1f, rng))) {}

Tensor Embedding::Forward(const std::vector<int>& indices) const {
  return GatherRows(table_, indices);
}

// --- LayerNorm ---

LayerNorm::LayerNorm(int dim)
    : dim_(dim),
      gamma_(RegisterParameter("gamma",
                               Tensor::Full(1, dim, 1.0f,
                                            /*requires_grad=*/true))),
      beta_(RegisterParameter(
          "beta", Tensor::Zeros(1, dim, /*requires_grad=*/true))) {}

Tensor LayerNorm::Forward(const Tensor& x) const {
  assert(x.cols() == dim_);
  // Fused single-node kernel; bit-identical forward to the 8-op chain
  // (RowMean/Sub/Square/Sqrt/Log/Exp/Mul/Add) this used to build.
  return LayerNormRows(x, gamma_, beta_);
}

// --- BatchNorm1d ---

BatchNorm1d::BatchNorm1d(int dim, float momentum)
    : dim_(dim),
      momentum_(momentum),
      gamma_(RegisterParameter("gamma",
                               Tensor::Full(1, dim, 1.0f,
                                            /*requires_grad=*/true))),
      beta_(RegisterParameter(
          "beta", Tensor::Zeros(1, dim, /*requires_grad=*/true))),
      running_mean_(dim, 0.0f),
      running_var_(dim, 1.0f) {}

Tensor BatchNorm1d::Forward(const Tensor& x) {
  assert(x.cols() == dim_);
  if (training() && x.rows() > 1) {
    const int m = x.rows();
    const float* xv = x.value().data();
    // Batch statistics as constants for the running update.
    std::vector<float> mean(dim_, 0.0f), var(dim_, 0.0f);
    for (int r = 0; r < m; ++r) {
      const float* xrow = xv + static_cast<size_t>(r) * dim_;
      for (int c = 0; c < dim_; ++c) mean[c] += xrow[c];
    }
    for (int c = 0; c < dim_; ++c) mean[c] /= static_cast<float>(m);
    for (int r = 0; r < m; ++r) {
      const float* xrow = xv + static_cast<size_t>(r) * dim_;
      for (int c = 0; c < dim_; ++c) {
        const float d = xrow[c] - mean[c];
        var[c] += d * d;
      }
    }
    for (int c = 0; c < dim_; ++c) var[c] /= static_cast<float>(m);
    for (int c = 0; c < dim_; ++c) {
      running_mean_[c] =
          (1 - momentum_) * running_mean_[c] + momentum_ * mean[c];
      running_var_[c] = (1 - momentum_) * running_var_[c] + momentum_ * var[c];
    }
    // Differentiable normalization path (mean/var recomputed with autograd
    // so gradients flow through the statistics as in standard batch norm).
    Tensor col_mean = Tensor::Zeros(1, dim_);
    Tensor col_inv_std = Tensor::Zeros(1, dim_);
    float* mv = col_mean.value().data();
    float* sv = col_inv_std.value().data();
    for (int c = 0; c < dim_; ++c) {
      mv[c] = mean[c];
      sv[c] = 1.0f / std::sqrt(var[c] + 1e-5f);
    }
    const Tensor normalized = Mul(Sub(x, col_mean), col_inv_std);
    return Add(Mul(normalized, gamma_), beta_);
  }
  Tensor col_mean = Tensor::Zeros(1, dim_);
  Tensor col_inv_std = Tensor::Zeros(1, dim_);
  float* mv = col_mean.value().data();
  float* sv = col_inv_std.value().data();
  for (int c = 0; c < dim_; ++c) {
    mv[c] = running_mean_[c];
    sv[c] = 1.0f / std::sqrt(running_var_[c] + 1e-5f);
  }
  const Tensor normalized = Mul(Sub(x, col_mean), col_inv_std);
  return Add(Mul(normalized, gamma_), beta_);
}

// --- MLP ---

Tensor Activate(const Tensor& x, Activation activation) {
  switch (activation) {
    case Activation::kRelu:
      return Relu(x);
    case Activation::kSigmoid:
      return Sigmoid(x);
    case Activation::kTanh:
      return Tanh(x);
    case Activation::kNone:
      return x;
  }
  return x;
}

Mlp::Mlp(const std::vector<int>& dims, Activation hidden_activation,
         Activation output_activation, util::Rng* rng)
    : hidden_activation_(hidden_activation),
      output_activation_(output_activation) {
  assert(dims.size() >= 2);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(RegisterModule(
        "layer" + std::to_string(i),
        std::make_unique<Linear>(dims[i], dims[i + 1], rng)));
  }
}

Tensor Mlp::Forward(const Tensor& x) const {
  Tensor h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const Activation act = i + 1 < layers_.size() ? hidden_activation_
                                                  : output_activation_;
    // ReLU-activated layers run as one fused Linear+ReLU node — same bits
    // forward and backward, one graph node and two memory passes cheaper
    // per layer (the MLP training hot path).
    if (act == Activation::kRelu) {
      h = layers_[i]->ForwardRelu(h);
    } else {
      h = Activate(layers_[i]->Forward(h), act);
    }
  }
  return h;
}

int Mlp::out_features() const { return layers_.back()->out_features(); }

}  // namespace qpe::nn
