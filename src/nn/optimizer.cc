#include "nn/optimizer.h"

#include <cmath>

#include "nn/simd.h"

namespace qpe::nn {

void Optimizer::ZeroGrad() {
  for (Tensor p : params_) p.ZeroGrad();
}

util::Status Optimizer::ValidateState(const OptimizerState& state,
                                      const std::string& expected_kind,
                                      size_t expected_slots) const {
  if (state.kind != expected_kind) {
    return util::FailedPreconditionError(
        "optimizer state kind '" + state.kind + "' does not match '" +
        expected_kind + "'");
  }
  if (state.slots.size() != expected_slots) {
    return util::FailedPreconditionError(
        "optimizer state has " + std::to_string(state.slots.size()) +
        " slot(s), expected " + std::to_string(expected_slots));
  }
  for (size_t slot = 0; slot < state.slots.size(); ++slot) {
    if (state.slots[slot].size() != params_.size()) {
      return util::FailedPreconditionError(
          "optimizer slot " + std::to_string(slot) + " covers " +
          std::to_string(state.slots[slot].size()) + " parameter(s), expected " +
          std::to_string(params_.size()));
    }
    for (size_t i = 0; i < params_.size(); ++i) {
      const size_t expected = static_cast<size_t>(params_[i].numel());
      if (state.slots[slot][i].size() != expected) {
        return util::FailedPreconditionError(
            "optimizer slot " + std::to_string(slot) + " parameter " +
            std::to_string(i) + " has " +
            std::to_string(state.slots[slot][i].size()) +
            " element(s), expected " + std::to_string(expected));
      }
    }
  }
  return util::OkStatus();
}

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Tensor& p : params_) {
    m_.emplace_back(p.numel(), 0.0f);
    v_.emplace_back(p.numel(), 0.0f);
  }
}

void Adam::Step() {
  ++step_count_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  // The fused moments + bias-correction + update pass lives in the kernel
  // dispatch table (AdamStepT): elementwise with correctly rounded ops
  // only, so the vector levels update parameters bit-identically to the
  // scalar loop — training trajectories are unchanged by dispatch level.
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor p = params_[i];
    simd::K().adam_step(p.value().data(), p.grad().data(), m_[i].data(),
                        v_[i].data(), p.value().size(), lr_, beta1_, beta2_,
                        eps_, bias1, bias2);
  }
}

OptimizerState Adam::ExportState() const {
  OptimizerState state;
  state.kind = "adam";
  state.step_count = step_count_;
  state.slots = {m_, v_};
  return state;
}

util::Status Adam::ImportState(const OptimizerState& state) {
  if (util::Status s = ValidateState(state, "adam", 2); !s.ok()) return s;
  step_count_ = static_cast<int>(state.step_count);
  m_ = state.slots[0];
  v_ = state.slots[1];
  return util::OkStatus();
}

}  // namespace qpe::nn
