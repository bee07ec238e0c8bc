#include "tasks/latency_model.h"

#include <cmath>

#include "data/features.h"
#include "nn/loss.h"
#include "nn/train_loop.h"

namespace qpe::tasks {

LatencyPredictor::LatencyPredictor(const EmbeddingFeaturizer* featurizer,
                                   int hidden_dim, util::Rng* rng)
    : featurizer_(featurizer) {
  mlp_ = RegisterModule(
      "mlp", std::make_unique<nn::Mlp>(
                 std::vector<int>{featurizer->FeatureDim(), hidden_dim,
                                  hidden_dim, 1},
                 nn::Activation::kRelu, nn::Activation::kNone, rng));
}

nn::Tensor LatencyPredictor::FeatureTensor(
    const std::vector<std::vector<float>>& rows) const {
  const int n = static_cast<int>(rows.size());
  const int d = static_cast<int>(rows[0].size());
  std::vector<float> flat;
  flat.reserve(static_cast<size_t>(n) * d);
  for (const auto& row : rows) flat.insert(flat.end(), row.begin(), row.end());
  return nn::Tensor::FromVector(n, d, flat);
}

double LatencyPredictor::Train(
    const std::vector<simdb::ExecutedQuery>& train,
    const TrainOptions& options) {
  // Encoders are fixed feature extractors: featurize once, then train the
  // head MLP on the cached matrix.
  const std::vector<std::vector<float>> features =
      featurizer_->FeaturizeAll(train);
  std::vector<float> targets;
  targets.reserve(train.size());
  for (const simdb::ExecutedQuery& record : train) {
    targets.push_back(static_cast<float>(data::EncodeLabel(record.latency_ms)));
  }

  nn::RunTrainLoop(
      {.epochs = options.epochs, .batch_size = options.batch_size,
       .lr = options.lr, .seed = options.seed, .grad_clip = 5.0f},
      {.model = this,
       .num_examples = static_cast<int>(train.size()),
       .num_shards = [](std::span<const int>, util::Rng*) { return 1; },
       .shard_loss = [&](std::span<const int> batch, int) {
         std::vector<std::vector<float>> batch_rows;
         std::vector<float> batch_targets;
         for (int i : batch) {
           batch_rows.push_back(features[i]);
           batch_targets.push_back(targets[i]);
         }
         const nn::Tensor x = FeatureTensor(batch_rows);
         const nn::Tensor y = nn::Tensor::FromVector(
             static_cast<int>(batch_targets.size()), 1, batch_targets);
         return nn::MseLoss(mlp_->Forward(x), y);
       }},
      nullptr);
  return EvaluateMaeMs(train);
}

double LatencyPredictor::PredictMs(const simdb::ExecutedQuery& record) const {
  const nn::Tensor x = FeatureTensor({featurizer_->Featurize(record)});
  return data::DecodeLabel(mlp_->Forward(x).at(0, 0));
}

double LatencyPredictor::EvaluateMaeMs(
    const std::vector<simdb::ExecutedQuery>& records) const {
  if (records.empty()) return 0;
  double total = 0;
  for (const simdb::ExecutedQuery& record : records) {
    total += std::abs(PredictMs(record) - record.latency_ms);
  }
  return total / static_cast<double>(records.size());
}

}  // namespace qpe::tasks
