#include "tasks/classifier.h"

#include <cassert>
#include <span>

#include "nn/tensor.h"
#include "nn/train_loop.h"

namespace qpe::tasks {

namespace {

// Weight of the cluster cross-entropy regularizer in the training loss.
constexpr float kClusterLossWeight = 0.5f;

nn::Tensor RowsTensor(const std::vector<std::vector<float>>& rows,
                      std::span<const int> indices) {
  const int d = static_cast<int>(rows[indices[0]].size());
  std::vector<float> flat;
  flat.reserve(indices.size() * d);
  for (int i : indices) {
    flat.insert(flat.end(), rows[i].begin(), rows[i].end());
  }
  return nn::Tensor::FromVector(static_cast<int>(indices.size()), d, flat);
}

}  // namespace

QueryClassifier::QueryClassifier(const Config& config, util::Rng* rng)
    : config_(config) {
  assert(static_cast<int>(config.template_to_cluster.size()) ==
         config.num_templates);
  batchnorm_ = RegisterModule(
      "batchnorm", std::make_unique<nn::BatchNorm1d>(config.feature_dim));
  mlp_ = RegisterModule(
      "mlp", std::make_unique<nn::Mlp>(
                 std::vector<int>{config.feature_dim, config.hidden_dim,
                                  config.hidden_dim, config.num_templates},
                 nn::Activation::kRelu, nn::Activation::kNone, rng));
  cluster_matrix_ =
      nn::Tensor::Zeros(config.num_templates, config.num_clusters);
  for (int t = 0; t < config.num_templates; ++t) {
    cluster_matrix_.set(t, config.template_to_cluster[t], 1.0f);
  }
}

nn::Tensor QueryClassifier::Logits(const nn::Tensor& x) {
  return mlp_->Forward(batchnorm_->Forward(x));
}

void QueryClassifier::Train(const std::vector<std::vector<float>>& features,
                            const std::vector<int>& template_labels,
                            const TrainOptions& options) {
  nn::TrainTask task{
      .model = this,
      .num_examples = static_cast<int>(features.size()),
      // The whole minibatch is one shard; batch norm needs two rows.
      .num_shards = [this](std::span<const int> batch, util::Rng*) {
        return batch.size() < 2 ? 0 : 1;
      }};
  task.shard_loss = [&](std::span<const int> indices, int) {
    const nn::Tensor x = RowsTensor(features, indices);
    std::vector<int> targets;
    targets.reserve(indices.size());
    for (int i : indices) targets.push_back(template_labels[i]);
    const nn::Tensor logits = Logits(x);
    const nn::Tensor loss = CrossEntropy(logits, targets);
    // Cluster regularizer: sum template probabilities per cluster, then
    // cross-entropy against the true cluster (§5.3).
    const nn::Tensor probs = SoftmaxRows(logits);
    const nn::Tensor cluster_probs = MatMul(probs, cluster_matrix_);
    nn::Tensor one_hot = nn::Tensor::Zeros(static_cast<int>(indices.size()),
                                           config_.num_clusters);
    float* oh = one_hot.value().data();
    for (size_t r = 0; r < indices.size(); ++r) {
      oh[r * config_.num_clusters + config_.template_to_cluster[targets[r]]] =
          1.0f;
    }
    const nn::Tensor cluster_nll =
        Scale(Mean(RowSum(Mul(Log(cluster_probs), one_hot))),
              -static_cast<float>(config_.num_clusters));
    // (RowSum picks the target cluster's log-prob; Mean divides by the
    // cluster count, so rescale to a per-row average NLL.)
    return Add(loss, Scale(cluster_nll, kClusterLossWeight));
  };
  nn::RunTrainLoop({.epochs = options.epochs, .batch_size = options.batch_size,
                    .lr = options.lr, .seed = options.seed, .grad_clip = 5.0f},
                   task, nullptr);
}

QueryClassifier::Accuracy QueryClassifier::Evaluate(
    const std::vector<std::vector<float>>& features,
    const std::vector<int>& template_labels) {
  SetTraining(false);
  Accuracy accuracy;
  if (features.empty()) return accuracy;
  int template_hits = 0, cluster_hits = 0;
  for (size_t i = 0; i < features.size(); ++i) {
    const nn::Tensor x = nn::Tensor::FromVector(
        1, static_cast<int>(features[i].size()), features[i]);
    const nn::Tensor logits = Logits(x);
    const nn::Tensor probs = SoftmaxRows(logits);
    // Template prediction: argmax logit.
    const float* lv = logits.value().data();  // [1, num_templates]
    const float* pv = probs.value().data();
    int best_template = 0;
    for (int t = 1; t < config_.num_templates; ++t) {
      if (lv[t] > lv[best_template]) best_template = t;
    }
    // Cluster prediction: argmax of summed template probabilities (§5.3).
    std::vector<double> cluster_scores(config_.num_clusters, 0.0);
    for (int t = 0; t < config_.num_templates; ++t) {
      cluster_scores[config_.template_to_cluster[t]] += pv[t];
    }
    int best_cluster = 0;
    for (int c = 1; c < config_.num_clusters; ++c) {
      if (cluster_scores[c] > cluster_scores[best_cluster]) best_cluster = c;
    }
    template_hits += best_template == template_labels[i];
    cluster_hits +=
        best_cluster == config_.template_to_cluster[template_labels[i]];
  }
  accuracy.template_accuracy =
      static_cast<double>(template_hits) / features.size();
  accuracy.cluster_accuracy =
      static_cast<double>(cluster_hits) / features.size();
  return accuracy;
}

}  // namespace qpe::tasks
