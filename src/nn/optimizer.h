#ifndef QPE_NN_OPTIMIZER_H_
#define QPE_NN_OPTIMIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/tensor.h"
#include "util/status.h"

namespace qpe::nn {

// Serializable snapshot of an optimizer's mutable state. `kind` names the
// optimizer that exported it ("adam"), so a checkpoint from another
// optimizer is refused rather than misread; `slots` is one vector of
// per-parameter buffers per state kind (Adam: {m, v}). Checkpoint/resume
// round-trips this bit-exactly.
struct OptimizerState {
  std::string kind;
  int64_t step_count = 0;
  std::vector<std::vector<std::vector<float>>> slots;
};

// Optimizers update parameter values in place from accumulated gradients,
// then expect ZeroGradAll() (or Module::ZeroGrad) before the next step.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> params) : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  virtual void Step() = 0;
  void ZeroGrad();

  // Snapshot / restore of moments and step counters for checkpointing.
  // ImportState validates kind, slot count, and every buffer size against
  // this optimizer and mutates nothing on mismatch.
  virtual OptimizerState ExportState() const = 0;
  virtual util::Status ImportState(const OptimizerState& state) = 0;

  const std::vector<Tensor>& params() const { return params_; }

 protected:
  // Shared ImportState validation: checks `kind` and that each slot has one
  // correctly-sized buffer per parameter.
  util::Status ValidateState(const OptimizerState& state,
                             const std::string& expected_kind,
                             size_t expected_slots) const;

  std::vector<Tensor> params_;
};

// Adam with the bias-corrected update of Kingma & Ba. Step() runs a fused
// single pass per parameter: value/grad/m/v are walked together through
// restrict-qualified pointers, so each element is touched once per step
// with no intermediate buffers.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Tensor> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);

  void Step() override;
  OptimizerState ExportState() const override;
  util::Status ImportState(const OptimizerState& state) override;

  float lr() const { return lr_; }

 private:
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  int step_count_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace qpe::nn

#endif  // QPE_NN_OPTIMIZER_H_
