#include "nn/train_loop.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "nn/optimizer.h"
#include "nn/parallel.h"
#include "util/durable_file.h"

namespace qpe::nn {

double RunTrainLoop(const TrainLoopConfig& config, const TrainTask& task,
                    TrainStats* stats_out) {
  TrainStats local_stats;
  TrainStats& stats = stats_out != nullptr ? *stats_out : local_stats;
  stats = TrainStats{};
  Module* model = task.model;
  // Shards must capture gradient writes into EVERY parameter: a frozen one
  // still receives gradients, Adam just never applies them.
  const std::vector<Tensor> all_params = model->Parameters();
  const std::vector<Tensor>& optimized =
      task.optimized.empty() ? all_params : task.optimized;
  Adam optimizer(optimized, config.lr);
  util::Rng rng(config.seed);
  TrainingState state;
  const CheckpointConfig& checkpoint = config.checkpoint;
  if (!checkpoint.path.empty() && checkpoint.resume &&
      util::FileExists(checkpoint.path)) {
    stats.io_status =
        LoadTrainingCheckpoint(checkpoint.path, model, &optimizer, &state);
    if (!stats.io_status.ok()) return 0;  // never overwrite it: stop
    rng.SetState(state.rng);
    stats.resumed_from_epoch = state.next_epoch;
  }
  model->SetTraining(true);
  ShardGradBuffers scratch;  // reused across steps
  const size_t batch_size = static_cast<size_t>(std::max(1, config.batch_size));
  const bool clip = std::isfinite(config.grad_clip);  // inf: no clipping
  double last_epoch_loss = 0;
  for (int epoch = static_cast<int>(state.next_epoch); epoch < config.epochs;
       ++epoch) {
    const std::vector<int> order = rng.Permutation(task.num_examples);
    double epoch_loss = 0;
    int batches = 0;
    int skipped = 0;
    for (size_t start = 0; start < order.size(); start += batch_size) {
      if (config.abort != nullptr &&
          config.abort->load(std::memory_order_relaxed)) {
        stats.aborted = true;
        break;
      }
      const std::span<const int> batch(
          order.data() + start, std::min(batch_size, order.size() - start));
      const int num_shards = task.num_shards(batch, &rng);
      if (num_shards == 0) continue;
      model->ZeroGrad();
      const double batch_loss = ParallelGradientStep(
          all_params, num_shards,
          [&](int shard) { return task.shard_loss(batch, shard); }, &scratch);
      ++state.global_step;
      if (!std::isfinite(batch_loss)) {
        // Loss-spike guard: drop the poisoned update (the next batch zeroes
        // the grads) instead of feeding NaN/Inf into the Adam moments.
        ++state.nonfinite_losses;
        ++state.skipped_batches;
        ++skipped;
        continue;
      }
      if (clip) ClipGradNorm(optimized, config.grad_clip);
      optimizer.Step();
      epoch_loss += batch_loss;
      ++batches;
    }
    last_epoch_loss = batches > 0 ? epoch_loss / batches : 0;
    if (stats.aborted) break;  // the last checkpoint stands, as after SIGKILL
    const bool stop = task.end_epoch && task.end_epoch(epoch, skipped, &state);
    if (!checkpoint.path.empty() &&
        ((epoch + 1) % std::max(1, checkpoint.interval_epochs) == 0 ||
         epoch + 1 == config.epochs || stop)) {
      state.next_epoch = epoch + 1;
      state.rng = rng.GetState();
      util::Status s =
          SaveTrainingCheckpoint(checkpoint.path, *model, optimizer, state);
      if (stats.io_status.ok()) stats.io_status = std::move(s);
    }
    if (stop) break;
  }
  stats.skipped_batches = state.skipped_batches;
  stats.nonfinite_losses = state.nonfinite_losses;
  model->SetTraining(false);
  return last_epoch_loss;
}

}  // namespace qpe::nn
