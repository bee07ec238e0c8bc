#ifndef QPE_TASKS_CLASSIFIER_H_
#define QPE_TASKS_CLASSIFIER_H_

#include <vector>

#include "nn/module.h"
#include "util/rng.h"

namespace qpe::tasks {

// Downstream task 2 (paper §4.2, §5.3): query classification on the Join
// Order Benchmark — predict the template id (113-way) of a plan, with a
// cluster-level (33-way) cross-entropy regularizer, weighted 0.5, computed
// by summing the template probabilities within each cluster. Inputs are
// fused embedding features (structure and/or performance, from
// EmbeddingFeaturizer), passed through batch normalization before the
// classifier MLP — both details the paper reports as important.
class QueryClassifier : public nn::Module {
 public:
  struct Config {
    int feature_dim = 0;
    int hidden_dim = 64;
    int num_templates = 113;
    int num_clusters = 33;
    std::vector<int> template_to_cluster;  // size num_templates
  };

  QueryClassifier(const Config& config, util::Rng* rng);

  struct TrainOptions {
    int epochs = 40;
    float lr = 2e-3f;
    int batch_size = 32;
    uint64_t seed = 53;
  };

  void Train(const std::vector<std::vector<float>>& features,
             const std::vector<int>& template_labels,
             const TrainOptions& options);

  struct Accuracy {
    double template_accuracy = 0;
    double cluster_accuracy = 0;
  };

  Accuracy Evaluate(const std::vector<std::vector<float>>& features,
                    const std::vector<int>& template_labels);

 private:
  nn::Tensor Logits(const nn::Tensor& x);

  Config config_;
  nn::BatchNorm1d* batchnorm_;
  nn::Mlp* mlp_;
  nn::Tensor cluster_matrix_;  // [num_templates, num_clusters], constant 0/1
};

}  // namespace qpe::tasks

#endif  // QPE_TASKS_CLASSIFIER_H_
