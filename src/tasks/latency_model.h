#ifndef QPE_TASKS_LATENCY_MODEL_H_
#define QPE_TASKS_LATENCY_MODEL_H_

#include <memory>
#include <vector>

#include "nn/module.h"
#include "simdb/workload_runner.h"
#include "tasks/embeddings.h"

namespace qpe::tasks {

// Downstream task 1 (paper §4.1): query latency prediction. A standard
// multilayer DNN over the fused features from EmbeddingFeaturizer —
// structure embedding, computational performance embedding, and the
// (log-scaled) database settings — trained in log-latency space.
class LatencyPredictor : public nn::Module {
 public:
  LatencyPredictor(const EmbeddingFeaturizer* featurizer, int hidden_dim,
                   util::Rng* rng);

  struct TrainOptions {
    int epochs = 80;
    float lr = 2e-3f;
    int batch_size = 32;
    uint64_t seed = 41;
  };

  // Trains on executed queries (targets: observed latency). Returns final
  // train MAE in ms.
  double Train(const std::vector<simdb::ExecutedQuery>& train,
               const TrainOptions& options);

  double PredictMs(const simdb::ExecutedQuery& record) const;

  // MAE in milliseconds over a set.
  double EvaluateMaeMs(const std::vector<simdb::ExecutedQuery>& records) const;

 private:
  nn::Tensor FeatureTensor(
      const std::vector<std::vector<float>>& rows) const;

  const EmbeddingFeaturizer* featurizer_;
  nn::Mlp* mlp_;
};

}  // namespace qpe::tasks

#endif  // QPE_TASKS_LATENCY_MODEL_H_
