#include "encoder/ppsr.h"

#include <cmath>
#include <utility>

#include "nn/arena.h"
#include "nn/loss.h"
#include "nn/train_loop.h"
#include "util/thread_pool.h"

namespace qpe::encoder {

PpsrModel::PpsrModel(std::unique_ptr<PlanSequenceEncoder> encoder,
                     util::Rng* rng) {
  const int d = encoder->output_dim();
  encoder_ = RegisterModule("encoder", std::move(encoder));
  match_ = RegisterModule("match", std::make_unique<nn::Linear>(4 * d, 1, rng));
}

nn::Tensor PpsrModel::PredictSimilarity(const plan::PlanNode& left,
                                        const plan::PlanNode& right,
                                        util::Rng* dropout_rng) const {
  // Both plans encode through one gradient-capable batch call: during
  // training the transformer encoder runs one columnar packed
  // forward/backward per pair (bit-identical to two per-plan Encode
  // graphs, gradients included), under NoGradGuard its packed inference
  // engine (the same bits as Encode), and the baseline encoders their
  // per-plan loop.
  const plan::PlanNode* batch[2] = {&left, &right};
  const std::vector<nn::Tensor> enc =
      encoder_->EncodeBatchGrad(batch, dropout_rng);
  const nn::Tensor& v1 = enc[0];
  const nn::Tensor& v2 = enc[1];
  const nn::Tensor features =
      nn::ConcatCols({v1, v2, Abs(Sub(v1, v2)), Mul(v1, v2)});
  return Sigmoid(match_->Forward(features));
}

std::vector<nn::Tensor> PpsrModel::HeadParameters() const {
  return match_->Parameters();
}

double TrainPpsr(PpsrModel* model, const std::vector<data::PlanPair>& train,
                 const PpsrTrainOptions& options) {
  nn::TrainTask task{.model = model,
                     .num_examples = static_cast<int>(train.size())};
  if (options.freeze_encoder) task.optimized = model->HeadParameters();
  // One shard per pair. Dropout streams are forked sequentially in pair
  // order before dispatch so they are a function of the data order alone,
  // never of which thread runs which shard.
  std::vector<util::Rng> shard_rngs;
  task.num_shards = [&shard_rngs](std::span<const int> batch, util::Rng* rng) {
    shard_rngs.clear();
    for (size_t s = 0; s < batch.size(); ++s) shard_rngs.push_back(rng->Fork());
    return static_cast<int>(batch.size());
  };
  task.shard_loss = [&](std::span<const int> batch, int s) {
    const data::PlanPair& pair = train[batch[s]];
    const nn::Tensor pred =
        model->PredictSimilarity(*pair.left, *pair.right, &shard_rngs[s]);
    const nn::Tensor target =
        nn::Tensor::Scalar(static_cast<float>(pair.smatch));
    // Summed over shards this equals the mean-over-batch loss.
    return Scale(Square(Sub(pred, target)),
                 1.0f / static_cast<float>(batch.size()));
  };
  return nn::RunTrainLoop(
      {.epochs = options.epochs, .batch_size = options.batch_size,
       .lr = options.lr, .seed = options.seed, .grad_clip = options.grad_clip,
       .checkpoint = options.checkpoint, .abort = options.abort},
      task, options.stats);
}

double EvaluatePpsrMae(const PpsrModel& model,
                       const std::vector<data::PlanPair>& pairs) {
  if (pairs.empty()) return 0;
  const int n = static_cast<int>(pairs.size());
  std::vector<double> errors(n, 0.0);
  util::ParallelRun(n, [&](int i) {
    nn::ArenaScope arena;     // per-item graph epoch; nothing escapes
    nn::NoGradGuard no_grad;  // pure forward: skip graph construction
    const data::PlanPair& pair = pairs[i];
    const nn::Tensor pred =
        model.PredictSimilarity(*pair.left, *pair.right, nullptr);
    errors[i] = std::abs(static_cast<double>(pred.value()[0]) - pair.smatch);
  });
  double total = 0;
  for (double e : errors) total += e;  // fixed order: thread-count invariant
  return total / static_cast<double>(pairs.size());
}

}  // namespace qpe::encoder
