#include "tasks/qppnet.h"

#include <cmath>

#include "data/features.h"
#include "nn/loss.h"
#include "nn/train_loop.h"

namespace qpe::tasks {
namespace {

// Size of the inter-unit data vectors.
constexpr int kDataDim = 16;
// Supervision weight for internal (non-root) nodes' latency outputs.
constexpr float kInternalLossWeight = 0.5f;

}  // namespace

QppNet::QppNet(const Config& config, util::Rng* rng) : config_(config) {
  const int input_dim = data::kNodeFeatureDim + 2 * kDataDim;
  for (int g = 0; g < plan::kNumOperatorGroups; ++g) {
    units_.push_back(RegisterModule(
        std::string("unit_") + plan::GroupName(static_cast<plan::OperatorGroup>(g)),
        std::make_unique<nn::Mlp>(
            std::vector<int>{input_dim, config.hidden_dim, config.hidden_dim,
                             kDataDim},
            nn::Activation::kRelu, nn::Activation::kNone, rng)));
  }
}

nn::Tensor QppNet::ForwardNode(const plan::PlanNode& node) const {
  // Children data vectors, zero-padded to two slots; extra children are
  // summed into the second slot.
  nn::Tensor left = nn::Tensor::Zeros(1, kDataDim);
  nn::Tensor right = nn::Tensor::Zeros(1, kDataDim);
  const auto& children = node.children();
  if (!children.empty()) left = ForwardNode(*children[0]);
  for (size_t i = 1; i < children.size(); ++i) {
    right = Add(right, ForwardNode(*children[i]));
  }
  const std::vector<double> features = data::NodeFeatures(node);
  std::vector<float> feature_floats(features.begin(), features.end());
  const nn::Tensor node_features = nn::Tensor::FromVector(
      1, static_cast<int>(feature_floats.size()), feature_floats);
  const nn::Tensor input = nn::ConcatCols({node_features, left, right});
  const int group = static_cast<int>(plan::GroupOf(node.type()));
  return units_[group]->Forward(input);
}

nn::Tensor QppNet::PlanLoss(const plan::PlanNode& root) const {
  // Supervise the root's latency output fully, internal nodes at reduced
  // weight, as in the original per-operator training signal.
  nn::Tensor total = nn::Tensor::Scalar(0.0f);
  float weight_total = 0.0f;
  std::vector<const plan::PlanNode*> stack = {&root};
  while (!stack.empty()) {
    const plan::PlanNode* node = stack.back();
    stack.pop_back();
    const float weight = node == &root ? 1.0f : kInternalLossWeight;
    const nn::Tensor data_vector = ForwardNode(*node);
    const nn::Tensor pred = SliceCols(data_vector, 0, 1);
    const nn::Tensor target = nn::Tensor::Scalar(static_cast<float>(
        data::EncodeLabel(node->props().actual_total_time_ms)));
    total = Add(total, Scale(Square(Sub(pred, target)), weight));
    weight_total += weight;
    // Only descend one level for internal supervision to bound cost: the
    // root plus its direct children cover the dominant operators.
    if (node == &root) {
      for (const auto& child : node->children()) stack.push_back(child.get());
    }
  }
  return Scale(total, 1.0f / weight_total);
}

void QppNet::Train(const std::vector<simdb::ExecutedQuery>& train) {
  // Per-plan SGD: every minibatch is one plan, skipped if it has no tree.
  nn::RunTrainLoop(
      {.epochs = config_.epochs, .lr = config_.lr, .seed = config_.seed,
       .grad_clip = 5.0f},
      {.model = this,
       .num_examples = static_cast<int>(train.size()),
       .num_shards = [&train](std::span<const int> batch, util::Rng*) {
         return train[batch[0]].query.root == nullptr ? 0 : 1;
       },
       .shard_loss = [&](std::span<const int> batch, int) {
         return PlanLoss(*train[batch[0]].query.root);
       }},
      nullptr);
}

double QppNet::PredictMs(const simdb::ExecutedQuery& record) const {
  if (record.query.root == nullptr) return 0;
  const nn::Tensor data_vector = ForwardNode(*record.query.root);
  return data::DecodeLabel(data_vector.at(0, 0));
}

}  // namespace qpe::tasks
