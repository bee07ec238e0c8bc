#ifndef QPE_NN_MODULE_H_
#define QPE_NN_MODULE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/tensor.h"
#include "util/rng.h"

namespace qpe::nn {

// Base class for neural network building blocks. A module owns parameters
// and submodules; Parameters() flattens the tree (with stable, dotted names
// for serialization).
class Module {
 public:
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // All trainable parameters of this module and its submodules. Served from
  // a cache (tensors are shared handles, so the cached copies alias the
  // live parameters): training loops call this every step via
  // ZeroGrad/optimizers, and rebuilding the dotted-name tree each time
  // dominated small-model step cost.
  std::vector<Tensor> Parameters() const;
  // Parameters with stable dotted path names, e.g. "encoder.layer0.wq".
  std::vector<std::pair<std::string, Tensor>> NamedParameters() const;

  // Training mode (affects Dropout and BatchNorm behaviour).
  void SetTraining(bool training);
  bool training() const { return training_; }

  void ZeroGrad();

 protected:
  Module() = default;

  Tensor& RegisterParameter(const std::string& name, Tensor tensor);
  // Registers and returns a submodule; the module keeps ownership.
  template <typename M>
  M* RegisterModule(const std::string& name, std::unique_ptr<M> module) {
    M* raw = module.get();
    submodules_.emplace_back(name, std::move(module));
    param_cache_valid_ = false;
    return raw;
  }

 private:
  void CollectNamed(const std::string& prefix,
                    std::vector<std::pair<std::string, Tensor>>* out) const;
  void CollectParams(std::vector<Tensor>* out) const;
  // The flattened parameter list, built once after construction (both
  // Register* calls invalidate it) and reused by ZeroGrad()/Parameters().
  const std::vector<Tensor>& CachedParameters() const;

  std::vector<std::pair<std::string, Tensor>> params_;
  std::vector<std::pair<std::string, std::unique_ptr<Module>>> submodules_;
  mutable std::vector<Tensor> param_cache_;
  mutable bool param_cache_valid_ = false;
  bool training_ = true;
};

// Fully connected layer: y = x W + b, with Xavier-initialized W.
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, util::Rng* rng);

  Tensor Forward(const Tensor& x) const;
  // Linear + ReLU as one fused graph node (LinearRowBiasRelu): bit-identical
  // to Relu(Forward(x)) forward and backward, one node and two memory
  // passes cheaper. Mlp routes its ReLU-activated layers through this.
  Tensor ForwardRelu(const Tensor& x) const;
  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }

 private:
  int in_features_;
  int out_features_;
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [1, out]
};

// Embedding table: rows indexed by token id.
class Embedding : public Module {
 public:
  Embedding(int vocab_size, int dim, util::Rng* rng);

  // indices -> [len(indices), dim]
  Tensor Forward(const std::vector<int>& indices) const;
  int dim() const { return dim_; }

 private:
  int dim_;
  Tensor table_;  // [vocab, dim]
};

// Layer normalization over the feature (column) dimension of each row.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int dim);

  Tensor Forward(const Tensor& x) const;

 private:
  int dim_;
  Tensor gamma_;  // [1, dim]
  Tensor beta_;   // [1, dim]
};

// 1-D batch normalization over the batch (row) dimension, with running
// statistics for inference. The paper's classifier uses this when fusing
// structure and performance embeddings (§5.3).
class BatchNorm1d : public Module {
 public:
  explicit BatchNorm1d(int dim, float momentum = 0.1f);

  Tensor Forward(const Tensor& x);

 private:
  int dim_;
  float momentum_;
  Tensor gamma_;
  Tensor beta_;
  std::vector<float> running_mean_;
  std::vector<float> running_var_;
};

// Activation selection for configurable MLPs.
enum class Activation { kRelu, kSigmoid, kTanh, kNone };

Tensor Activate(const Tensor& x, Activation activation);

// Multi-layer perceptron: Linear(+activation) stack. `dims` is
// {in, hidden..., out}; the final layer gets `output_activation`.
class Mlp : public Module {
 public:
  Mlp(const std::vector<int>& dims, Activation hidden_activation,
      Activation output_activation, util::Rng* rng);

  Tensor Forward(const Tensor& x) const;
  int out_features() const;

 private:
  std::vector<Linear*> layers_;
  Activation hidden_activation_;
  Activation output_activation_;
};

}  // namespace qpe::nn

#endif  // QPE_NN_MODULE_H_
