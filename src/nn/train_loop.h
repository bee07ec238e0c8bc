#ifndef QPE_NN_TRAIN_LOOP_H_
#define QPE_NN_TRAIN_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "nn/checkpoint.h"
#include "nn/module.h"
#include "nn/tensor.h"
#include "util/rng.h"
#include "util/status.h"

namespace qpe::nn {

// The one training loop behind every trainer (PPSR, the performance
// encoder, the sparse autoencoder, the query classifier, QPPNet and the
// latency head). Per epoch it draws one rng.Permutation and slices it into
// minibatches; per minibatch it checks `abort`, runs ZeroGrad and one
// ParallelGradientStep, counts global_step, skips the update if the loss is
// non-finite (the loss-spike guard), clips the optimized parameters'
// gradients and steps Adam. It resumes crash-safely from `checkpoint` (a
// file that fails to load stops the run and is never overwritten) and saves
// every `interval_epochs`, after the last epoch and on early stop (a failed
// save is recorded and training continues). An aborted partial epoch is
// never saved, so resuming after abort equals resuming after SIGKILL.
struct TrainLoopConfig {
  int epochs = 1;
  int batch_size = 1;  // values < 1 mean 1
  float lr = 1e-3f;    // Adam
  uint64_t seed = 0;   // the loop RNG: data order, then shard forks
  float grad_clip = std::numeric_limits<float>::infinity();  // inf: no clip
  CheckpointConfig checkpoint{};
  const std::atomic<bool>* abort = nullptr;  // checked at batch boundaries
};

struct TrainStats {
  int64_t resumed_from_epoch = 0;  // 0 == started fresh
  int64_t skipped_batches = 0;     // cumulative across resumes
  int64_t nonfinite_losses = 0;
  bool aborted = false;  // stopped early via TrainLoopConfig::abort
  util::Status io_status;  // first checkpoint IO error
};

// What a trainer supplies.
struct TrainTask {
  Module* model = nullptr;
  // Parameters Adam updates and the clip covers; empty means all. Gradients
  // are captured for every model parameter either way.
  std::vector<Tensor> optimized{};
  int num_examples = 0;
  // Shard count for a minibatch (example indices in epoch order); 0 skips
  // it. Runs on the calling thread before dispatch, so it may draw from the
  // loop RNG (PPSR forks its per-shard dropout streams here).
  std::function<int(std::span<const int> batch, util::Rng* rng)> num_shards{};
  // One shard's loss, weighted so the shard losses sum to the batch loss.
  // Shards may run concurrently.
  std::function<Tensor(std::span<const int> batch, int shard)> shard_loss{};
  // Optional: runs after each completed epoch, before its checkpoint, with
  // that epoch's skipped-batch count. It may update progress->best_val and
  // best_epoch (checkpointed). Returns true to stop training.
  std::function<bool(int epoch, int skipped_batches, TrainingState* progress)>
      end_epoch{};
};

// Returns the mean loss over the stepped batches of the last epoch run (0 if
// none ran). `stats` may be null.
double RunTrainLoop(const TrainLoopConfig& config, const TrainTask& task,
                    TrainStats* stats);

}  // namespace qpe::nn

#endif  // QPE_NN_TRAIN_LOOP_H_
