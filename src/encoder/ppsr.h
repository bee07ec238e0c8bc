#ifndef QPE_ENCODER_PPSR_H_
#define QPE_ENCODER_PPSR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "data/datasets.h"
#include "encoder/structure_encoder.h"
#include "nn/module.h"
#include "nn/train_loop.h"
#include "util/status.h"

namespace qpe::encoder {

// Plan-Pair Similarity Regression (paper §3.1.1): the pretraining task that
// teaches the structure encoder. Given two plans, predict their Smatch
// score with a matching layer over [v1 ∘ v2 ∘ |v1−v2| ∘ v1⊙v2] followed by
// a sigmoid (the paper's 4d concatenated match function).
class PpsrModel : public nn::Module {
 public:
  // Takes ownership of the encoder.
  PpsrModel(std::unique_ptr<PlanSequenceEncoder> encoder, util::Rng* rng);

  nn::Tensor PredictSimilarity(const plan::PlanNode& left,
                               const plan::PlanNode& right,
                               util::Rng* dropout_rng) const;

  PlanSequenceEncoder* encoder() { return encoder_; }
  const PlanSequenceEncoder* encoder() const { return encoder_; }
  // Parameters of the match head only (for fixed-feature evaluation).
  std::vector<nn::Tensor> HeadParameters() const;

 private:
  PlanSequenceEncoder* encoder_;
  nn::Linear* match_;
};

// Observability for a TrainPpsr run: where it resumed, how many batches the
// loss-spike guard dropped, and the first checkpoint IO error (if any).
using PpsrTrainStats = nn::TrainStats;

struct PpsrTrainOptions {
  int epochs = 8;
  float lr = 5e-4f;
  int batch_size = 8;
  uint64_t seed = 23;
  // Fixed-feature mode: freeze the encoder, train only the match head
  // ("Transformer-PPSR-fixed" in §6.1).
  bool freeze_encoder = false;
  float grad_clip = 5.0f;
  // Crash-safe checkpoint/resume and cooperative cancellation, with the
  // semantics of nn::TrainLoopConfig (nn/train_loop.h). The serving daemon
  // sets `abort` to drain mid-adaptation.
  nn::CheckpointConfig checkpoint;
  const std::atomic<bool>* abort = nullptr;
  // If non-null, filled with resume/skip/IO information for the run.
  PpsrTrainStats* stats = nullptr;
};

// Trains the model on Smatch-labelled pairs; returns the final-epoch mean
// train loss (MSE).
double TrainPpsr(PpsrModel* model, const std::vector<data::PlanPair>& train,
                 const PpsrTrainOptions& options);

// Mean absolute error between predicted and true Smatch scores.
double EvaluatePpsrMae(const PpsrModel& model,
                       const std::vector<data::PlanPair>& pairs);

}  // namespace qpe::encoder

#endif  // QPE_ENCODER_PPSR_H_
