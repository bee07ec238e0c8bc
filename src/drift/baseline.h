#ifndef QPE_DRIFT_BASELINE_H_
#define QPE_DRIFT_BASELINE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "drift/sketches.h"
#include "encoder/structure_encoder.h"
#include "plan/plan_node.h"
#include "plan/taxonomy.h"

namespace qpe::drift {

// Compact 24-bit code of a taxonomy token (level1<<16 | level2<<8 | level3),
// the key every token sketch and frequency table uses. Structural markers
// (BR_OPEN/BR_CLOSE/CLS/SEP) are excluded from drift accounting — they
// appear in every linearization with near-constant frequency and would only
// dampen the total-variation signal of real operator-mix shifts.
uint32_t TokenCode(const plan::OperatorType& type);
bool IsStructuralToken(const plan::OperatorType& type);
// Human-readable "Scan-Heap-Bitmap" style name for attribution output.
std::string TokenCodeName(uint32_t code);

struct DriftBaselineConfig {
  int clusters = 4;
  int kmeans_iterations = 25;
  size_t bloom_bits = 1u << 16;
  int bloom_hashes = 4;
  // Quantile of training nearest-centroid distances used as the outlier
  // threshold; 1 - quantile of training points land in the outlier bucket
  // by construction, which is the bucket's baseline occupancy.
  double outlier_quantile = 0.95;
  uint64_t seed = 17;
};

// Frozen summary of the *training* distribution the detector compares the
// live stream against: embedding-space centroids with occupancies and an
// outlier threshold, exact operator-token frequencies, and a bloom filter
// over every training plan fingerprint. Immutable once built — sustained
// novelty must keep alarming until an adaptation rebaselines.
struct DriftBaseline {
  int dim = 0;
  size_t plans = 0;
  DriftBaselineConfig config;
  CentroidSet centroids;
  BloomFilter bloom;
  // Exact token-code frequency over the training plans (fraction of all
  // non-structural tokens). Small: bounded by the taxonomy cross-product
  // actually in use, not by corpus size.
  std::unordered_map<uint32_t, double> token_freq;
  double outlier_occupancy = 0.05;  // 1 - outlier_quantile
};

// Plans per EncodeBatch call while building a baseline: the serving
// micro-batch, so the build never grows the packed workspace past it.
inline constexpr size_t kBaselineEncodeChunk = 16;

// Builds the baseline by encoding `plans` with `encoder` (no dropout, no
// autograd), kBaselineEncodeChunk plans at a time, and clustering the
// embeddings. Deterministic given the config seed. `plans` should be (a
// sample of) the corpus the serving encoder was trained on.
// After an adaptation, rebaseline by calling this again with the refreshed
// encoder and the union of the original corpus and the drifted slice — the
// adapted distribution becomes the new normal.
DriftBaseline BuildDriftBaseline(
    const encoder::PlanSequenceEncoder& encoder,
    const std::vector<const plan::PlanNode*>& plans,
    const DriftBaselineConfig& config = {});

}  // namespace qpe::drift

#endif  // QPE_DRIFT_BASELINE_H_
