#include "encoder/performance_encoder.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "data/features.h"
#include "nn/arena.h"
#include "nn/loss.h"
#include "nn/train_loop.h"

namespace qpe::encoder {

// --- PerfEncoderBase ---

PerfEncoderBase::PerfEncoderBase(const PerfEncoderConfig& config,
                                 util::Rng* rng)
    : config_(config) {
  heads_ = RegisterModule("heads",
                          std::make_unique<nn::Linear>(config.embed_dim, 3, rng));
}

nn::Tensor PerfEncoderBase::PredictLabels(const nn::Tensor& embedding) const {
  return heads_->Forward(embedding);
}

// --- PerformanceEncoder (three-column) ---

PerformanceEncoder::PerformanceEncoder(const PerfEncoderConfig& config,
                                       util::Rng* rng)
    : PerfEncoderBase(config, rng) {
  node_column_ = RegisterModule(
      "node_column",
      std::make_unique<nn::Mlp>(
          std::vector<int>{config.node_dim, config.column_hidden,
                           config.column_hidden},
          nn::Activation::kRelu, nn::Activation::kRelu, rng));
  meta_column_ = RegisterModule(
      "meta_column",
      std::make_unique<nn::Mlp>(
          std::vector<int>{config.meta_dim, config.column_hidden,
                           config.column_hidden},
          nn::Activation::kRelu, nn::Activation::kRelu, rng));
  db_column_ = RegisterModule(
      "db_column",
      std::make_unique<nn::Mlp>(
          std::vector<int>{config.db_dim, config.column_hidden,
                           config.column_hidden},
          nn::Activation::kRelu, nn::Activation::kRelu, rng));
  merge_ = RegisterModule(
      "merge",
      std::make_unique<nn::Linear>(3 * config.column_hidden, config.embed_dim,
                                   rng));
}

nn::Tensor PerformanceEncoder::Embed(const nn::Tensor& node_features,
                                     const nn::Tensor& meta_features,
                                     const nn::Tensor& db_features) const {
  const nn::Tensor merged = nn::ConcatCols({node_column_->Forward(node_features),
                                        meta_column_->Forward(meta_features),
                                        db_column_->Forward(db_features)});
  return Relu(merge_->Forward(merged));
}

// --- SingleColumnPerformanceEncoder ---

SingleColumnPerformanceEncoder::SingleColumnPerformanceEncoder(
    const PerfEncoderConfig& config, util::Rng* rng)
    : PerfEncoderBase(config, rng) {
  const int input_dim = config.node_dim + config.meta_dim + config.db_dim;
  // Same depth and comparable width as the three-column model.
  stack_ = RegisterModule(
      "stack", std::make_unique<nn::Mlp>(
                   std::vector<int>{input_dim, 3 * config.column_hidden,
                                    3 * config.column_hidden, config.embed_dim},
                   nn::Activation::kRelu, nn::Activation::kRelu, rng));
}

nn::Tensor SingleColumnPerformanceEncoder::Embed(
    const nn::Tensor& node_features, const nn::Tensor& meta_features,
    const nn::Tensor& db_features) const {
  return stack_->Forward(
      nn::ConcatCols({node_features, meta_features, db_features}));
}

// --- Training ---

namespace {

nn::Tensor RowsToTensor(const std::vector<data::OperatorSample>& samples,
                        const std::vector<int>& indices,
                        const std::vector<double> data::OperatorSample::*field) {
  const int cols =
      static_cast<int>((samples[indices[0]].*field).size());
  std::vector<float> data;
  data.reserve(indices.size() * cols);
  for (int i : indices) {
    for (double v : samples[i].*field) {
      // Last line of defense for foreign samples: a non-finite feature (or
      // a double that overflows float) becomes 0 instead of poisoning the
      // whole batch through the matmul.
      const float fv = static_cast<float>(v);
      data.push_back(std::isfinite(fv) ? fv : 0.0f);
    }
  }
  return nn::Tensor::FromVector(static_cast<int>(indices.size()), cols, data);
}

}  // namespace

PerfBatch MakePerfBatch(const std::vector<data::OperatorSample>& samples,
                        const std::vector<int>& indices) {
  PerfBatch batch;
  batch.node = RowsToTensor(samples, indices, &data::OperatorSample::node_features);
  batch.meta = RowsToTensor(samples, indices, &data::OperatorSample::meta_features);
  batch.db = RowsToTensor(samples, indices, &data::OperatorSample::db_features);
  std::vector<float> labels;
  labels.reserve(indices.size() * 3);
  for (int i : indices) {
    labels.push_back(
        static_cast<float>(data::EncodeLabel(samples[i].actual_total_time_ms)));
    labels.push_back(static_cast<float>(data::EncodeLabel(samples[i].total_cost)));
    labels.push_back(
        static_cast<float>(data::EncodeLabel(samples[i].startup_cost)));
  }
  batch.labels = nn::Tensor::FromVector(static_cast<int>(indices.size()), 3,
                                        labels);
  return batch;
}

double EvaluatePerfMaeMs(const PerfEncoderBase& model,
                         const std::vector<data::OperatorSample>& samples) {
  if (samples.empty()) return 0;
  nn::ArenaScope arena;     // the whole eval graph dies with this scope
  nn::NoGradGuard no_grad;  // pure forward: skip graph construction
  std::vector<int> all(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) all[i] = static_cast<int>(i);
  const PerfBatch batch = MakePerfBatch(samples, all);
  const nn::Tensor pred =
      model.PredictLabels(model.Embed(batch.node, batch.meta, batch.db));
  const float* pv = pred.value().data();  // [n, 3] rows; label in column 0
  const int pn = pred.cols();
  double total = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const double pred_ms = data::DecodeLabel(pv[i * pn]);
    total += std::abs(pred_ms - samples[i].actual_total_time_ms);
  }
  return total / static_cast<double>(samples.size());
}

std::vector<PerfEpochStats> TrainPerformanceEncoder(
    PerfEncoderBase* model, const data::OperatorDataset& dataset,
    const PerfTrainOptions& options) {
  // Rows per data-parallel shard within a minibatch. Fixed (never derived
  // from the thread count) so the shard partition — and therefore the
  // gradient reduction order — is identical for every thread count.
  constexpr size_t kShardRows = 8;
  nn::TrainTask task{.model = model,
                     .num_examples = static_cast<int>(dataset.train.size())};
  task.num_shards = [](std::span<const int> batch, util::Rng*) {
    return static_cast<int>((batch.size() + kShardRows - 1) / kShardRows);
  };
  task.shard_loss = [&](std::span<const int> batch, int shard) {
    const std::span<const int> rest = batch.subspan(shard * kShardRows);
    const std::vector<int> rows(
        rest.begin(), rest.begin() + std::min(rest.size(), kShardRows));
    const PerfBatch b = MakePerfBatch(dataset.train, rows);
    const nn::Tensor pred =
        model->PredictLabels(model->Embed(b.node, b.meta, b.db));
    // Summed over shards this equals MseLoss over the whole minibatch:
    // shard SSE over the full batch element count.
    return Scale(Sum(Square(Sub(pred, b.labels))),
                 1.0f / static_cast<float>(batch.size() * 3));
  };
  std::vector<PerfEpochStats> history;
  task.end_epoch = [&](int epoch, int skipped, nn::TrainingState* progress) {
    PerfEpochStats stats;
    model->SetTraining(false);
    stats.train_mae_ms = EvaluatePerfMaeMs(*model, dataset.train);
    stats.val_mae_ms = EvaluatePerfMaeMs(*model, dataset.val);
    stats.test_mae_ms = EvaluatePerfMaeMs(*model, dataset.test);
    stats.skipped_batches = stats.nonfinite_losses = skipped;
    model->SetTraining(true);
    history.push_back(stats);
    if (stats.val_mae_ms < progress->best_val - 1e-12) {
      progress->best_val = stats.val_mae_ms;
      progress->best_epoch = epoch;
    }
    return options.patience_epochs > 0 &&
           epoch - progress->best_epoch >= options.patience_epochs;
  };
  nn::TrainStats stats;
  nn::RunTrainLoop(
      {.epochs = options.epochs, .batch_size = options.batch_size,
       .lr = options.lr, .seed = options.seed, .grad_clip = options.grad_clip,
       .checkpoint = options.checkpoint},
      task, &stats);
  if (options.io_status != nullptr && options.io_status->ok()) {
    *options.io_status = std::move(stats.io_status);
  }
  return history;
}

}  // namespace qpe::encoder
