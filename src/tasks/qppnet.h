#ifndef QPE_TASKS_QPPNET_H_
#define QPE_TASKS_QPPNET_H_

#include <memory>
#include <vector>

#include "nn/module.h"
#include "tasks/baselines.h"

namespace qpe::tasks {

// QPPNet (Marcus & Papaemmanouil [18]): plan-structured neural network.
// One neural unit per operator group; a node's unit consumes the node's
// features concatenated with its children's output *data vectors* and emits
// a 16-float data vector whose first element is the predicted (encoded)
// latency of the subtree; internal nodes' outputs are supervised at half
// the root's weight. The network composes along the plan tree, so its shape
// mirrors the plan's shape — per-plan dynamic graphs, handled naturally by
// the autograd substrate.
class QppNet : public nn::Module, public LatencyBaseline {
 public:
  struct Config {
    int hidden_dim = 32;
    int epochs = 30;
    float lr = 2e-3f;
    uint64_t seed = 47;
  };

  QppNet(const Config& config, util::Rng* rng);

  void Train(const std::vector<simdb::ExecutedQuery>& train) override;
  double PredictMs(const simdb::ExecutedQuery& record) const override;
  std::string name() const override { return "QPPNet"; }

 private:
  // Returns the node's data vector [1, 16].
  nn::Tensor ForwardNode(const plan::PlanNode& node) const;
  // Collects (prediction, encoded target, weight) terms for the loss.
  nn::Tensor PlanLoss(const plan::PlanNode& root) const;

  Config config_;
  std::vector<nn::Mlp*> units_;  // one per plan::OperatorGroup
};

}  // namespace qpe::tasks

#endif  // QPE_TASKS_QPPNET_H_
