#ifndef QPE_ENCODER_PERFORMANCE_ENCODER_H_
#define QPE_ENCODER_PERFORMANCE_ENCODER_H_

#include <vector>

#include "data/datasets.h"
#include "nn/checkpoint.h"
#include "nn/module.h"
#include "nn/tensor.h"
#include "util/status.h"

namespace qpe::encoder {

// Configuration of one per-operator performance encoder instance (the paper
// creates one for each of Scan, Join, Sort, Aggregate; §3.2).
struct PerfEncoderConfig {
  int node_dim = 40;    // data::kNodeFeatureDim
  int meta_dim = 14;    // catalog::Catalog::kMetaFeatureDim
  int db_dim = 18;      // config::DbConfig::FeatureDim()
  int column_hidden = 32;
  int embed_dim = 32;   // C(p) dimension (paper used 300 at GPU scale)
};

// Base for performance encoders: subclasses produce the embedding; the base
// owns the three multi-task regression heads (Total Time, Total Cost,
// Startup Time — trained jointly so the embedding captures all of them,
// §3.2.3).
class PerfEncoderBase : public nn::Module {
 public:
  virtual ~PerfEncoderBase() = default;

  // [B, node_dim], [B, meta_dim], [B, db_dim] -> embedding [B, embed_dim].
  virtual nn::Tensor Embed(const nn::Tensor& node_features,
                           const nn::Tensor& meta_features,
                           const nn::Tensor& db_features) const = 0;

  // Embedding -> [B, 3] predicted (encoded) labels: time, cost, startup.
  nn::Tensor PredictLabels(const nn::Tensor& embedding) const;

  const PerfEncoderConfig& config() const { return config_; }

 protected:
  PerfEncoderBase(const PerfEncoderConfig& config, util::Rng* rng);

 private:
  PerfEncoderConfig config_;
  nn::Linear* heads_;  // one linear producing all three label outputs
};

// The paper's three-column DNN (§3.2.2): independent columns for plan
// features, meta features, and DB settings, merged by a fully-connected
// layer into the embedding.
class PerformanceEncoder : public PerfEncoderBase {
 public:
  PerformanceEncoder(const PerfEncoderConfig& config, util::Rng* rng);

  nn::Tensor Embed(const nn::Tensor& node_features,
                   const nn::Tensor& meta_features,
                   const nn::Tensor& db_features) const override;

 private:
  nn::Mlp* node_column_;
  nn::Mlp* meta_column_;
  nn::Mlp* db_column_;
  nn::Linear* merge_;
};

// Standard single-column DNN baseline (§6.2's "standard DNN"): all features
// concatenated into one stack of the same total capacity.
class SingleColumnPerformanceEncoder : public PerfEncoderBase {
 public:
  SingleColumnPerformanceEncoder(const PerfEncoderConfig& config,
                                 util::Rng* rng);

  nn::Tensor Embed(const nn::Tensor& node_features,
                   const nn::Tensor& meta_features,
                   const nn::Tensor& db_features) const override;

 private:
  nn::Mlp* stack_;
};

// --- Training ---

struct PerfTrainOptions {
  int epochs = 60;
  float lr = 2e-3f;
  int batch_size = 32;
  uint64_t seed = 31;
  float grad_clip = 5.0f;
  // Early stopping: stop once `patience_epochs` epochs have passed since
  // the best validation MAE, where any strict improvement (beyond 1e-12 ms)
  // counts as a new best. The paper instead stops when MAE has improved by
  // less than 5 ms over 100 epochs; that threshold is not reproduced.
  int patience_epochs = 0;  // 0 disables early stopping
  // Crash-safe, bit-exact checkpoint/resume (nn/train_loop.h).
  nn::CheckpointConfig checkpoint;
  // If non-null, receives the first checkpoint IO error.
  util::Status* io_status = nullptr;
};

struct PerfEpochStats {
  double train_mae_ms = 0;
  double val_mae_ms = 0;
  double test_mae_ms = 0;
  // Loss-spike guard observability: batches whose loss came back NaN/Inf
  // this epoch were skipped (no optimizer step) instead of poisoning the
  // weights.
  int skipped_batches = 0;
  int nonfinite_losses = 0;
};

// Batched tensors for a set of operator samples.
struct PerfBatch {
  nn::Tensor node;
  nn::Tensor meta;
  nn::Tensor db;
  nn::Tensor labels;  // [B, 3] encoded
};
PerfBatch MakePerfBatch(const std::vector<data::OperatorSample>& samples,
                        const std::vector<int>& indices);

// Joint multi-metric training. Returns per-epoch MAE history (Actual Total
// Time, in milliseconds, as reported in the paper's Figure 12).
std::vector<PerfEpochStats> TrainPerformanceEncoder(
    PerfEncoderBase* model, const data::OperatorDataset& dataset,
    const PerfTrainOptions& options);

// MAE of the time label in milliseconds over a sample set.
double EvaluatePerfMaeMs(const PerfEncoderBase& model,
                         const std::vector<data::OperatorSample>& samples);

}  // namespace qpe::encoder

#endif  // QPE_ENCODER_PERFORMANCE_ENCODER_H_
