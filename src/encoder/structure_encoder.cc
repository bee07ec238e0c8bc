#include "encoder/structure_encoder.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <string>
#include <unordered_map>

#include "nn/arena.h"
#include "nn/packed_forward.h"
#include "nn/packed_train.h"
#include "nn/train_loop.h"

namespace qpe::encoder {

using plan::Taxonomy;

namespace {

// Ingestion hardening: an id outside the vocabulary (a corrupt or
// unsanitized foreign tree) embeds as the reserved UNKNOWN row instead of
// reading past the embedding table.
int ClampId(uint8_t id, int count, int unknown) {
  return id < count ? id : unknown;
}

}  // namespace

TokenIds TokensToIds(const std::vector<plan::OperatorType>& tokens) {
  const Taxonomy& tax = Taxonomy::Get();
  TokenIds ids;
  ids.level1.reserve(tokens.size());
  ids.level2.reserve(tokens.size());
  ids.level3.reserve(tokens.size());
  for (const plan::OperatorType& t : tokens) {
    ids.level1.push_back(ClampId(t.level1, tax.Level1Count(), tax.unknown1()));
    ids.level2.push_back(ClampId(t.level2, tax.Level2Count(), tax.unknown2()));
    ids.level3.push_back(ClampId(t.level3, tax.Level3Count(), tax.unknown3()));
  }
  return ids;
}

int BagOfTokensDim() {
  const Taxonomy& tax = Taxonomy::Get();
  return tax.Level1Count() + tax.Level2Count() + tax.Level3Count() + 2;
}

std::vector<double> BagOfTokens(const plan::PlanNode& root) {
  const Taxonomy& tax = Taxonomy::Get();
  std::vector<double> features(BagOfTokensDim(), 0.0);
  int nodes = 0;
  root.Visit([&](const plan::PlanNode& n) {
    ++nodes;
    const plan::OperatorType& t = n.type();
    features[ClampId(t.level1, tax.Level1Count(), tax.unknown1())] += 1.0;
    features[tax.Level1Count() +
             ClampId(t.level2, tax.Level2Count(), tax.unknown2())] += 1.0;
    features[tax.Level1Count() + tax.Level2Count() +
             ClampId(t.level3, tax.Level3Count(), tax.unknown3())] += 1.0;
  });
  const double inv = nodes > 0 ? 1.0 / nodes : 0.0;
  for (double& f : features) f *= inv;
  features[features.size() - 2] = std::log1p(static_cast<double>(nodes)) / 6.0;
  features[features.size() - 1] =
      std::log1p(static_cast<double>(root.Depth())) / 5.0;
  return features;
}

namespace {

nn::Tensor FeaturesToTensor(const std::vector<double>& features) {
  std::vector<float> data(features.begin(), features.end());
  return nn::Tensor::FromVector(1, static_cast<int>(data.size()), data);
}

}  // namespace

void PackPlansColumns(std::span<const plan::PlanNode* const> plans,
                      int max_len, nn::PackedBatch* ws) {
  const Taxonomy& tax = Taxonomy::Get();
  const int c1 = tax.Level1Count(), u1 = tax.unknown1();
  const int c2 = tax.Level2Count(), u2 = tax.unknown2();
  const int c3 = tax.Level3Count(), u3 = tax.unknown3();
  // One linearization scratch per thread, reused across plans and batches.
  thread_local std::vector<plan::OperatorType> tokens;
  ws->BeginBatch();
  for (const plan::PlanNode* p : plans) {
    plan::LinearizeDfsBracketInto(*p, &tokens);
    const int len = std::min(static_cast<int>(tokens.size()), max_len);
    for (int t = 0; t < len; ++t) {
      const plan::OperatorType& tok = tokens[t];
      ws->ids1.push_back(ClampId(tok.level1, c1, u1));
      ws->ids2.push_back(ClampId(tok.level2, c2, u2));
      ws->ids3.push_back(ClampId(tok.level3, c3, u3));
    }
    ws->lengths.push_back(len);
  }
  ws->BuildLayout();
  ws->FinishPack();
}

// --- PlanSequenceEncoder ---

std::vector<nn::Tensor> PlanSequenceEncoder::EncodeBatch(
    std::span<const plan::PlanNode* const> plans, util::Rng* dropout_rng) const {
  std::vector<nn::Tensor> out;
  out.reserve(plans.size());
  for (const plan::PlanNode* p : plans) out.push_back(Encode(*p, dropout_rng));
  return out;
}

std::vector<nn::Tensor> PlanSequenceEncoder::EncodeBatchGrad(
    std::span<const plan::PlanNode* const> plans, util::Rng* dropout_rng) const {
  // The per-plan loop is the gradient-bit reference the packed override
  // must reproduce.
  std::vector<nn::Tensor> out;
  out.reserve(plans.size());
  for (const plan::PlanNode* p : plans) out.push_back(Encode(*p, dropout_rng));
  return out;
}

// --- TransformerPlanEncoder ---

TransformerPlanEncoder::TransformerPlanEncoder(
    const StructureEncoderConfig& config, util::Rng* rng)
    : config_(config) {
  const Taxonomy& tax = Taxonomy::Get();
  embed1_ = RegisterModule("embed1", std::make_unique<nn::Embedding>(
                                         tax.Level1Count(), config.level1_dim,
                                         rng));
  embed2_ = RegisterModule("embed2", std::make_unique<nn::Embedding>(
                                         tax.Level2Count(), config.level2_dim,
                                         rng));
  embed3_ = RegisterModule("embed3", std::make_unique<nn::Embedding>(
                                         tax.Level3Count(), config.level3_dim,
                                         rng));
  transformer_ = RegisterModule(
      "transformer",
      std::make_unique<nn::TransformerEncoder>(
          config.ModelDim(), config.num_heads, config.ff_dim,
          config.num_layers, config.max_len, config.dropout, rng));
  if (config.output_dim > 0 && config.output_dim != config.ModelDim()) {
    projection_ = RegisterModule(
        "projection",
        std::make_unique<nn::Linear>(config.ModelDim(), config.output_dim, rng));
  }

  // Resolve the packed engine's site table once, through the same dotted
  // names the checkpoint format uses. Tensor handles stay valid across
  // LoadCheckpoint (which replaces value buffers, not tensors), so this
  // never needs re-running — only the raw pointers are re-bound per call.
  std::unordered_map<std::string, nn::Tensor> params;
  for (auto& [name, tensor] : NamedParameters()) params.emplace(name, tensor);
  auto get = [&](const std::string& name) -> nn::Tensor {
    auto it = params.find(name);
    assert(it != params.end() && "missing parameter for packed refs");
    return it->second;
  };
  nn::PackedRefs refs;
  refs.embed1 = get("embed1.table");
  refs.embed2 = get("embed2.table");
  refs.embed3 = get("embed3.table");
  refs.positional = get("transformer.positional");
  static constexpr const char* kSiteNames[] = {
      "attention.wq", "attention.wk", "attention.wv",
      "attention.wo", "ff1",          "ff2",
  };
  for (int i = 0; i < config.num_layers; ++i) {
    const std::string prefix = "transformer.layer" + std::to_string(i) + ".";
    nn::PackedRefs::Layer layer;
    layer.norm1_gamma = get(prefix + "norm1.gamma");
    layer.norm1_beta = get(prefix + "norm1.beta");
    layer.norm2_gamma = get(prefix + "norm2.gamma");
    layer.norm2_beta = get(prefix + "norm2.beta");
    refs.layers.push_back(std::move(layer));
    for (const char* site : kSiteNames) {
      refs.sites.push_back(
          {get(prefix + site + ".weight"), get(prefix + site + ".bias")});
    }
  }
  if (projection_ != nullptr) {
    refs.sites.push_back(
        {get("projection.weight"), get("projection.bias")});
  }
  packed_refs_ = std::make_shared<const nn::PackedRefs>(std::move(refs));
}

int TransformerPlanEncoder::output_dim() const {
  return projection_ != nullptr ? config_.output_dim : config_.ModelDim();
}

nn::Tensor TransformerPlanEncoder::EncodeTokens(
    const std::vector<plan::OperatorType>& tokens,
    util::Rng* dropout_rng) const {
  std::vector<plan::OperatorType> bounded = tokens;
  // Sequences past max_len (adversarially deep foreign plans) truncate
  // instead of outrunning the positional-encoding table.
  if (static_cast<int>(bounded.size()) > config_.max_len) {
    bounded.resize(config_.max_len);
  }
  const TokenIds ids = TokensToIds(bounded);
  const nn::Tensor embedded = nn::ConcatCols({embed1_->Forward(ids.level1),
                                          embed2_->Forward(ids.level2),
                                          embed3_->Forward(ids.level3)});
  const nn::Tensor contextual = transformer_->Forward(embedded, dropout_rng);
  // CLS pooling: the first token aggregates the sequence (§3.1.2).
  nn::Tensor cls = SliceRows(contextual, 0, 1);
  if (projection_ != nullptr) cls = projection_->Forward(cls);
  return cls;
}

nn::Tensor TransformerPlanEncoder::Encode(const plan::PlanNode& root,
                                          util::Rng* dropout_rng) const {
  return EncodeTokens(plan::LinearizeDfsBracket(root), dropout_rng);
}

void BindPackedView(const StructureEncoderConfig& config,
                    const nn::PackedRefs& refs, nn::PackedModelView* view) {
  view->model_dim = config.ModelDim();
  view->ff_dim = config.ff_dim;
  view->num_heads = config.num_heads;
  view->num_layers = config.num_layers;
  view->level1_dim = config.level1_dim;
  view->level2_dim = config.level2_dim;
  view->level3_dim = config.level3_dim;
  view->has_projection =
      config.output_dim > 0 && config.output_dim != config.ModelDim();
  view->output_dim =
      view->has_projection ? config.output_dim : config.ModelDim();
  view->embed1 = refs.embed1.value().data();
  view->embed2 = refs.embed2.value().data();
  view->embed3 = refs.embed3.value().data();
  view->positional = refs.positional.value().data();
  view->layers.resize(refs.layers.size());
  for (size_t i = 0; i < refs.layers.size(); ++i) {
    const nn::PackedRefs::Layer& l = refs.layers[i];
    view->layers[i] = {l.norm1_gamma.value().data(),
                       l.norm1_beta.value().data(),
                       l.norm2_gamma.value().data(),
                       l.norm2_beta.value().data()};
  }
}

std::vector<nn::Tensor> TransformerPlanEncoder::EncodeBatchPacked(
    std::span<const plan::PlanNode* const> plans) const {
  nn::PackedBatch& ws = nn::PackedBatch::ThreadLocal();
  PackPlansColumns(plans, config_.max_len, &ws);
  // The view lives in the thread-local workspace (re-bound per call: the
  // buffers move on checkpoint load), so concurrent encoder threads never
  // write a shared view.
  BindPackedView(config_, *packed_refs_, &ws.view);
  const float* result =
      nn::PackedEncodeForward(ws.view, ws, nn::Fp32Linear{packed_refs_.get()});

  // Result tensors are plain heap tensors, constructed outside any arena:
  // they escape this call, and routing them through the serving arena
  // would turn every micro-batch into arena misses.
  nn::ArenaScope noarena(nullptr);
  const int od = ws.view.output_dim;
  std::vector<nn::Tensor> out;
  out.reserve(plans.size());
  for (int i = 0; i < ws.layout.size(); ++i) {
    const float* row = result + static_cast<size_t>(i) * od;
    out.push_back(
        nn::Tensor::FromVector(1, od, std::vector<float>(row, row + od)));
  }
  return out;
}

std::vector<nn::Tensor> TransformerPlanEncoder::EncodeBatchGrad(
    std::span<const plan::PlanNode* const> plans, util::Rng* dropout_rng) const {
  if (plans.empty()) return {};
  // Nothing to record: the inference engine gives the same bits.
  if (!nn::GradEnabled()) return EncodeBatch(plans, dropout_rng);
  // Pack in REVERSE caller order: the autograd engine runs later-built
  // sibling subtrees' backward first, so under the reversed packing the
  // backward kernels' ascending-row accumulation reproduces the per-plan
  // gradient accumulation order at every shared memory location.
  nn::PackedTrainBatch& ws = nn::PackedTrainBatch::ThreadLocal();
  std::vector<const plan::PlanNode*> reversed(plans.rbegin(), plans.rend());
  PackPlansColumns(reversed, config_.max_len, &ws.batch);
  const nn::PackedRefs& refs = *packed_refs_;
  BindPackedView(config_, refs, &ws.batch.view);
  // Dropout engages exactly when the per-plan path would engage it.
  const uint64_t gen =
      ws.BeginForward(config_.dropout, training() ? dropout_rng : nullptr);
  const float* result = nn::PackedEncodeForward(
      ws.batch.view, ws.batch, nn::Fp32Linear{&refs}, &ws.tape);

  // One graph node for the whole batch. Its parents are every parameter
  // the backward writes, so requires_grad propagates; the gradients
  // themselves flow through GradPtr inside PackedTrainBackward, not
  // through graph edges (the parameters are leaves).
  const int S = ws.batch.layout.size();
  const int od = ws.batch.view.output_dim;
  std::vector<std::shared_ptr<nn::Tensor::Impl>> parents;
  parents.reserve(4 + 4 * refs.layers.size() + 2 * refs.sites.size());
  parents.push_back(refs.embed1.impl_);
  parents.push_back(refs.embed2.impl_);
  parents.push_back(refs.embed3.impl_);
  parents.push_back(refs.positional.impl_);
  for (const nn::PackedRefs::Layer& l : refs.layers) {
    parents.push_back(l.norm1_gamma.impl_);
    parents.push_back(l.norm1_beta.impl_);
    parents.push_back(l.norm2_gamma.impl_);
    parents.push_back(l.norm2_beta.impl_);
  }
  for (const nn::PackedRefs::Site& s : refs.sites) {
    parents.push_back(s.weight.impl_);
    parents.push_back(s.bias.impl_);
  }
  nn::Tensor packed_out =
      nn::Tensor::MakeResult(S, od, parents, nn::Tensor::Fill::kOverwrite);
  std::memcpy(packed_out.value().data(), result,
              sizeof(float) * static_cast<size_t>(S) * od);
  nn::PackedTrainBatch* wsp = &ws;
  nn::Tensor::Impl* oi = packed_out.impl();
  // The closure shares ownership of the site table, so a graph may outlive
  // this encoder, as op-chain graphs can.
  oi->backward_fn = [wsp, refs = packed_refs_, oi, gen]() {
    oi->EnsureGrad();
    nn::PackedTrainBackward(*wsp, *refs, oi->grad.data(), gen);
  };

  // Caller plan ci is packed sequence S-1-ci.
  std::vector<nn::Tensor> out;
  out.reserve(plans.size());
  for (int ci = 0; ci < S; ++ci) {
    out.push_back(SliceRows(packed_out, S - 1 - ci, 1));
  }
  return out;
}

std::vector<nn::Tensor> TransformerPlanEncoder::EncodeBatch(
    std::span<const plan::PlanNode* const> plans, util::Rng* dropout_rng) const {
  if (plans.empty()) return {};
  // The packed engine records no graph and draws no dropout, so it serves
  // exactly the NoGradGuard inference batches. Graph-recording callers and
  // training-mode dropout (whose draws are defined per sequence) take the
  // per-plan loop, which is the packed engine's oracle.
  if (nn::GradEnabled() || (dropout_rng != nullptr && training())) {
    return PlanSequenceEncoder::EncodeBatch(plans, dropout_rng);
  }
  return EncodeBatchPacked(plans);
}

// --- LstmPlanEncoder ---

LstmPlanEncoder::LstmPlanEncoder(const StructureEncoderConfig& config,
                                 util::Rng* rng)
    : config_(config) {
  const Taxonomy& tax = Taxonomy::Get();
  embed1_ = RegisterModule("embed1", std::make_unique<nn::Embedding>(
                                         tax.Level1Count(), config.level1_dim,
                                         rng));
  embed2_ = RegisterModule("embed2", std::make_unique<nn::Embedding>(
                                         tax.Level2Count(), config.level2_dim,
                                         rng));
  embed3_ = RegisterModule("embed3", std::make_unique<nn::Embedding>(
                                         tax.Level3Count(), config.level3_dim,
                                         rng));
  lstm_ = RegisterModule(
      "lstm", std::make_unique<nn::Lstm>(config.ModelDim(), config.ModelDim(),
                                         rng));
  if (config.output_dim > 0 && config.output_dim != config.ModelDim()) {
    projection_ = RegisterModule(
        "projection",
        std::make_unique<nn::Linear>(config.ModelDim(), config.output_dim, rng));
  }
}

int LstmPlanEncoder::output_dim() const {
  return projection_ != nullptr ? config_.output_dim : config_.ModelDim();
}

nn::Tensor LstmPlanEncoder::Encode(const plan::PlanNode& root,
                                   util::Rng* dropout_rng) const {
  (void)dropout_rng;
  std::vector<plan::OperatorType> tokens = plan::LinearizeDfsBracket(root);
  if (static_cast<int>(tokens.size()) > config_.max_len) {
    tokens.resize(config_.max_len);
  }
  const TokenIds ids = TokensToIds(tokens);
  const nn::Tensor embedded = nn::ConcatCols({embed1_->Forward(ids.level1),
                                          embed2_->Forward(ids.level2),
                                          embed3_->Forward(ids.level3)});
  nn::Tensor final_state = lstm_->Forward(embedded);
  if (projection_ != nullptr) final_state = projection_->Forward(final_state);
  return final_state;
}

// --- FnnPlanEncoder ---

FnnPlanEncoder::FnnPlanEncoder(int hidden_dim, int output_dim, util::Rng* rng)
    : output_dim_(output_dim) {
  mlp_ = RegisterModule(
      "mlp", std::make_unique<nn::Mlp>(
                 std::vector<int>{BagOfTokensDim(), hidden_dim, output_dim},
                 nn::Activation::kRelu, nn::Activation::kNone, rng));
}

nn::Tensor FnnPlanEncoder::Encode(const plan::PlanNode& root,
                                  util::Rng* dropout_rng) const {
  (void)dropout_rng;
  return mlp_->Forward(FeaturesToTensor(BagOfTokens(root)));
}

// --- SparseAutoencoder ---

SparseAutoencoder::SparseAutoencoder(int code_dim, util::Rng* rng)
    : code_dim_(code_dim) {
  encoder_ = RegisterModule(
      "encoder", std::make_unique<nn::Linear>(BagOfTokensDim(), code_dim, rng));
  decoder_ = RegisterModule(
      "decoder", std::make_unique<nn::Linear>(code_dim, BagOfTokensDim(), rng));
}

nn::Tensor SparseAutoencoder::EncodeFeatures(const nn::Tensor& features) const {
  return Sigmoid(encoder_->Forward(features));
}

nn::Tensor SparseAutoencoder::Encode(const plan::PlanNode& root,
                                     util::Rng* dropout_rng) const {
  (void)dropout_rng;
  return EncodeFeatures(FeaturesToTensor(BagOfTokens(root)));
}

nn::Tensor SparseAutoencoder::ReconstructionLoss(const plan::PlanNode& root,
                                                 float sparsity_weight) const {
  const nn::Tensor features = FeaturesToTensor(BagOfTokens(root));
  const nn::Tensor code = EncodeFeatures(features);
  const nn::Tensor reconstruction = decoder_->Forward(code);
  const nn::Tensor mse = Mean(Square(Sub(reconstruction, features)));
  const nn::Tensor sparsity = Mean(Abs(code));
  return Add(mse, Scale(sparsity, sparsity_weight));
}

util::Status PretrainSparseAutoencoder(
    SparseAutoencoder* autoencoder,
    const std::vector<const plan::PlanNode*>& plans, int epochs, float lr,
    uint64_t seed, int batch_size, const nn::CheckpointConfig& checkpoint) {
  nn::TrainTask task{
      .model = autoencoder,
      .num_examples = static_cast<int>(plans.size()),
      .num_shards = [](std::span<const int> batch, util::Rng*) {
        return static_cast<int>(batch.size());  // one shard per plan
      },
      // Summed over shards this is the mean loss over the minibatch; with
      // batch_size == 1 the scale is exactly 1.
      .shard_loss = [&](std::span<const int> batch, int s) {
        return Scale(autoencoder->ReconstructionLoss(*plans[batch[s]]),
                     1.0f / static_cast<float>(batch.size()));
      }};
  nn::TrainStats stats;
  nn::RunTrainLoop({.epochs = epochs, .batch_size = batch_size, .lr = lr,
                    .seed = seed, .checkpoint = checkpoint},
                   task, &stats);
  return stats.io_status;
}

}  // namespace qpe::encoder
