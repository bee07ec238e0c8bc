#ifndef QPE_ENCODER_STRUCTURE_ENCODER_H_
#define QPE_ENCODER_STRUCTURE_ENCODER_H_

#include <memory>
#include <span>
#include <vector>

#include "nn/checkpoint.h"
#include "nn/module.h"
#include "nn/packed_batch.h"
#include "nn/tensor.h"
#include "nn/transformer.h"
#include "plan/linearize.h"
#include "plan/plan_node.h"
#include "plan/taxonomy.h"
#include "util/status.h"

namespace qpe::encoder {

class QuantizedPlanEncoder;  // encoder/quantized_encoder.h

// Splits a linearized token sequence into three per-level id sequences for
// the sub-type embeddings.
struct TokenIds {
  std::vector<int> level1;
  std::vector<int> level2;
  std::vector<int> level3;
};
TokenIds TokensToIds(const std::vector<plan::OperatorType>& tokens);

// Bag-of-subtypes featurization of a plan (normalized subtype counts plus
// size/depth), the input of the FNN baseline and the sparse autoencoder.
int BagOfTokensDim();
std::vector<double> BagOfTokens(const plan::PlanNode& root);

// Columnar batch assembly for the packed pipeline: linearizes every plan
// (DFS-bracket, truncated to max_len), clamps the three sub-type ids, and
// appends them straight into the workspace's id columns, then builds the
// ragged layout in place. Equivalent to LinearizeDfsBracket + TokensToIds
// + BatchLayout::FromLengths per plan, but reuses the workspace's capacity
// so steady-state packing performs no heap allocation.
void PackPlansColumns(std::span<const plan::PlanNode* const> plans,
                      int max_len, nn::PackedBatch* ws);

// Common interface of all plan structure encoders: plan in, S(p) out.
class PlanSequenceEncoder : public nn::Module {
 public:
  // Returns the structural embedding [1, output_dim]. `dropout_rng` enables
  // stochastic regularization during training; pass nullptr for eval.
  virtual nn::Tensor Encode(const plan::PlanNode& root,
                            util::Rng* dropout_rng) const = 0;

  // Encodes a batch of plans; result i is the [1, output_dim] embedding of
  // plans[i], bit-identical to Encode(*plans[i], dropout_rng). The base
  // implementation is a per-plan loop; encoders with a batched forward
  // (TransformerPlanEncoder) override it to amortize matmuls across the
  // whole batch. This is the serving hot path — see serve::EmbeddingService.
  virtual std::vector<nn::Tensor> EncodeBatch(
      std::span<const plan::PlanNode* const> plans,
      util::Rng* dropout_rng) const;

  // Gradient-recording batch encode: like EncodeBatch, but usable while
  // gradients are enabled — result i backpropagates exactly like
  // Encode(*plans[i], dropout_rng) would, gradient bits included. The base
  // implementation is the per-plan loop (which IS that reference);
  // TransformerPlanEncoder overrides it with the columnar packed training
  // forward/backward (nn/packed_train.h) so data-parallel training shards
  // run one packed pass per shard instead of per-plan op-chain graphs.
  virtual std::vector<nn::Tensor> EncodeBatchGrad(
      std::span<const plan::PlanNode* const> plans,
      util::Rng* dropout_rng) const;

  virtual int output_dim() const = 0;
};

struct StructureEncoderConfig {
  // Sub-type embedding dims; the model dim is their sum (paper: input
  // embedding is the concatenation of the three sub-type embeddings).
  int level1_dim = 24;
  int level2_dim = 12;
  int level3_dim = 12;
  int num_heads = 4;
  int ff_dim = 96;
  int num_layers = 2;
  int max_len = 256;
  float dropout = 0.1f;
  // Final projection dim; 0 means "use the model dim directly". Used by the
  // embedding-size sweep of the paper's Figure 9.
  int output_dim = 0;

  int ModelDim() const { return level1_dim + level2_dim + level3_dim; }
};

// Fills `view` for the packed engine: dimensions from `config`, parameter
// pointers bound from `refs`' current value buffers.
void BindPackedView(const StructureEncoderConfig& config,
                    const nn::PackedRefs& refs, nn::PackedModelView* view);

// The paper's structure encoder (§3.1.2): DFS-bracket linearization,
// three-subtype concatenated input embeddings, multi-head self-attentive
// (transformer) layers, CLS pooling.
class TransformerPlanEncoder : public PlanSequenceEncoder {
 public:
  TransformerPlanEncoder(const StructureEncoderConfig& config, util::Rng* rng);

  nn::Tensor Encode(const plan::PlanNode& root,
                    util::Rng* dropout_rng) const override;
  nn::Tensor EncodeTokens(const std::vector<plan::OperatorType>& tokens,
                          util::Rng* dropout_rng) const;

  // Batched inference: under an active NoGradGuard, linearizes all plans,
  // packs the token sequences into one ragged batch (nn::PackedBatch) and
  // runs the columnar packed engine once, so the embedding lookup,
  // q/k/v/output projections, layer norms and feed-forward GEMMs are
  // amortized across the batch. Bit-identical to per-plan Encode at every
  // SIMD level. With gradients enabled, or with a non-null dropout RNG
  // during training, it falls back to the per-plan loop (the engine
  // records no graph, and dropout draws are per-sequence by contract).
  std::vector<nn::Tensor> EncodeBatch(
      std::span<const plan::PlanNode* const> plans,
      util::Rng* dropout_rng) const override;

  // Training fast path: packs the batch (in reverse caller order — see
  // nn/packed_train.h) and runs the packed engine with an activation tape,
  // returning slices of one graph node whose backward replays the op
  // chain's gradient arithmetic through the dispatched backward kernels.
  // Bit-identical to the per-plan loop (PlanSequenceEncoder's, the oracle)
  // — values, dropout streams and accumulated parameter gradients — at
  // every SIMD level. Under NoGradGuard there is nothing to record, and it
  // returns EncodeBatch.
  std::vector<nn::Tensor> EncodeBatchGrad(
      std::span<const plan::PlanNode* const> plans,
      util::Rng* dropout_rng) const override;

  int output_dim() const override;

  const StructureEncoderConfig& config() const { return config_; }

  // Builds an int8-quantized serving twin of this encoder (weights copied,
  // activation scales calibrated on the given held-out plan sample). The
  // result is self-contained: it does not reference this encoder after
  // construction. See encoder/quantized_encoder.h. Defined in
  // quantized_encoder.cc.
  std::unique_ptr<QuantizedPlanEncoder> Quantize(
      std::span<const plan::PlanNode* const> calibration) const;

  // The packed engine's site table over this encoder's parameters,
  // resolved once from the dotted parameter names.
  const nn::PackedRefs& packed_refs() const { return *packed_refs_; }

 private:
  // The columnar fast path of EncodeBatch: packs into the thread-local
  // nn::PackedBatch and runs the graph-free packed engine with fp32 GEMMs.
  // Engaged only under an active NoGradGuard (it records no graph).
  std::vector<nn::Tensor> EncodeBatchPacked(
      std::span<const plan::PlanNode* const> plans) const;

  StructureEncoderConfig config_;
  nn::Embedding* embed1_;
  nn::Embedding* embed2_;
  nn::Embedding* embed3_;
  nn::TransformerEncoder* transformer_;
  nn::Linear* projection_ = nullptr;  // only when output_dim != model dim
  // Shared with in-flight packed training graphs (see EncodeBatchGrad).
  std::shared_ptr<const nn::PackedRefs> packed_refs_;
};

// LSTM baseline over the same linearization (LSTM-PPSR in §6.1).
class LstmPlanEncoder : public PlanSequenceEncoder {
 public:
  LstmPlanEncoder(const StructureEncoderConfig& config, util::Rng* rng);

  nn::Tensor Encode(const plan::PlanNode& root,
                    util::Rng* dropout_rng) const override;
  int output_dim() const override;

 private:
  StructureEncoderConfig config_;
  nn::Embedding* embed1_;
  nn::Embedding* embed2_;
  nn::Embedding* embed3_;
  nn::Lstm* lstm_;
  nn::Linear* projection_ = nullptr;
};

// Feed-forward baseline on bag-of-subtype features (FNN in §6.1's
// from-scratch comparison).
class FnnPlanEncoder : public PlanSequenceEncoder {
 public:
  FnnPlanEncoder(int hidden_dim, int output_dim, util::Rng* rng);

  nn::Tensor Encode(const plan::PlanNode& root,
                    util::Rng* dropout_rng) const override;
  int output_dim() const override { return output_dim_; }

 private:
  int output_dim_;
  nn::Mlp* mlp_;
};

// Sparse autoencoder baseline (Sparse-AE in §6.1): self-supervised
// reconstruction of the bag-of-subtypes vector with an L1 sparsity penalty
// on the hidden code; Encode() returns the code.
class SparseAutoencoder : public PlanSequenceEncoder {
 public:
  SparseAutoencoder(int code_dim, util::Rng* rng);

  nn::Tensor Encode(const plan::PlanNode& root,
                    util::Rng* dropout_rng) const override;
  int output_dim() const override { return code_dim_; }

  // Reconstruction + sparsity loss for one plan (self-supervised pretraining).
  nn::Tensor ReconstructionLoss(const plan::PlanNode& root,
                                float sparsity_weight = 1e-3f) const;

 private:
  nn::Tensor EncodeFeatures(const nn::Tensor& features) const;

  int code_dim_;
  nn::Linear* encoder_;
  nn::Linear* decoder_;
};

// Pretrains a sparse autoencoder on a set of plans. With batch_size > 1
// each minibatch trains data-parallel (one shard per plan, gradients
// reduced deterministically in shard order before the optimizer step);
// batch_size == 1 reproduces the original per-plan SGD exactly. Checkpoints
// and resumes bit-exactly through `checkpoint`; returns the first checkpoint
// IO error (a resume file that fails to load stops the run before training).
util::Status PretrainSparseAutoencoder(
    SparseAutoencoder* autoencoder,
    const std::vector<const plan::PlanNode*>& plans, int epochs, float lr,
    uint64_t seed, int batch_size = 1,
    const nn::CheckpointConfig& checkpoint = {});

}  // namespace qpe::encoder

#endif  // QPE_ENCODER_STRUCTURE_ENCODER_H_
