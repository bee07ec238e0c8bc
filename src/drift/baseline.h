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

// Frozen summary of the *training* distribution the detector compares the
// live stream against: embedding-space centroids with occupancies and an
// outlier threshold, exact operator-token frequencies, and a bloom filter
// over every training plan fingerprint. Immutable once built — sustained
// novelty must keep alarming until an adaptation rebaselines.
struct DriftBaseline {
  int dim = 0;
  size_t plans = 0;
  CentroidSet centroids;
  BloomFilter bloom;
  // Exact token-code frequency over the training plans (fraction of all
  // non-structural tokens). Small: bounded by the taxonomy cross-product
  // actually in use, not by corpus size.
  std::unordered_map<uint32_t, double> token_freq;
  // Share of training points past the outlier threshold: 1 - the
  // threshold's quantile, the outlier bucket's baseline occupancy.
  double outlier_occupancy = 0.05;
};

// Plans per EncodeBatch call while building a baseline: the serving
// micro-batch, so the build never grows the packed workspace past it.
inline constexpr size_t kBaselineEncodeChunk = 16;

// Builds the baseline by encoding `plans` with `encoder` (no dropout, no
// autograd), kBaselineEncodeChunk plans at a time, and clustering the
// embeddings into 4 centroids (seeded k-means, so deterministic); the
// outlier threshold is the 0.95 quantile of the training nearest-centroid
// distances, and the bloom filter has 2^16 bits and 4 hashes. `plans`
// should be (a sample of) the corpus the serving encoder was trained on.
// After an adaptation, rebaseline by calling this again with the refreshed
// encoder and the union of the original corpus and the drifted slice — the
// adapted distribution becomes the new normal.
DriftBaseline BuildDriftBaseline(
    const encoder::PlanSequenceEncoder& encoder,
    const std::vector<const plan::PlanNode*>& plans);

}  // namespace qpe::drift

#endif  // QPE_DRIFT_BASELINE_H_
