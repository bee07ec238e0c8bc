#ifndef QPE_TASKS_EMBEDDINGS_H_
#define QPE_TASKS_EMBEDDINGS_H_

#include <array>
#include <vector>

#include "catalog/catalog.h"
#include "encoder/performance_encoder.h"
#include "encoder/structure_encoder.h"
#include "simdb/workload_runner.h"

namespace qpe::tasks {

// Bridges the pretrained encoders to the downstream tasks (paper Figure 4):
// given an executed query, produces the fused feature vector
//   [ S(p) ∘ mean-pooled C(p) per operator group ∘ f_db ]
// with any component omissible for ablations. Encoders are used as fixed
// feature extractors here (the paper's feature-based downstream usage).
class EmbeddingFeaturizer {
 public:
  struct Config {
    const encoder::PlanSequenceEncoder* structure = nullptr;  // may be null
    // One performance encoder per group: Scan, Join, Sort, Aggregate
    // (indexed by plan::OperatorGroup); entries may be null.
    std::array<const encoder::PerfEncoderBase*, 4> performance = {nullptr,
                                                                  nullptr,
                                                                  nullptr,
                                                                  nullptr};
    const catalog::Catalog* catalog = nullptr;  // required if performance set
    bool include_db_features = true;
    // Also append each group's predicted (encoded) time/cost/startup for
    // the *summed-features* sample — the cumulative-label view of §3.2.1.
    // This hands the downstream model calibrated per-group time estimates.
    bool include_group_predictions = true;
  };

  explicit EmbeddingFeaturizer(Config config);

  int FeatureDim() const;
  std::vector<float> Featurize(const simdb::ExecutedQuery& record) const;

  // Featurizes a whole dataset into an [N, FeatureDim] row-major matrix,
  // under a NoGradGuard. The structure embeddings of all records are
  // computed in one EncodeBatch call (bit-identical to per-record Encode).
  std::vector<std::vector<float>> FeaturizeAll(
      const std::vector<simdb::ExecutedQuery>& records) const;

  const Config& config() const { return config_; }

 private:
  // `structure` is the precomputed structural embedding of the record's
  // plan (batched path), or null to encode inline.
  std::vector<float> FeaturizeImpl(const simdb::ExecutedQuery& record,
                                   const nn::Tensor* structure) const;

  Config config_;
};

}  // namespace qpe::tasks

#endif  // QPE_TASKS_EMBEDDINGS_H_
