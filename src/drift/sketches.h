#ifndef QPE_DRIFT_SKETCHES_H_
#define QPE_DRIFT_SKETCHES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace qpe::drift {

// Streaming sketches behind the drift sentinel. All three are deliberately
// tiny, allocation-free after construction, and O(1) per observation: they
// sit on the daemon's serving hot path, and the acceptance bar is <5% of
// daemon_p99_ms for the whole Observe step.

// Classic Bloom filter over 64-bit keys with double hashing: hash i is
// h1 + i*h2 over the bit space, which preserves the standard false-positive
// bound without re-hashing per probe (Kirsch & Mitzenmacher). Used for
// "have we ever seen this plan fingerprint during training" — a miss is
// authoritative (the plan is truly novel), a hit may be a false positive,
// which only ever *under*-reports drift.
class BloomFilter {
 public:
  // `bits` is rounded up to a multiple of 64; hashes clamped to >= 1.
  explicit BloomFilter(size_t bits = 1u << 16, int hashes = 4);

  void Insert(uint64_t key);
  bool MightContain(uint64_t key) const;

  uint64_t inserted() const { return inserted_; }
  // Fraction of bits set — a saturation diagnostic for STATS.
  double FillRatio() const;

 private:
  size_t bits_;
  int hashes_;
  uint64_t inserted_ = 0;
  std::vector<uint64_t> words_;
};

// Count-min sketch over 64-bit keys: `depth` rows of `width` counters, each
// row indexed by an independently-seeded hash; Estimate takes the row-wise
// minimum, so estimates only ever over-count (by sketch collisions). Tracks
// the live window's taxonomy-token frequencies without a per-token map on
// the hot path.
class CountMinSketch {
 public:
  explicit CountMinSketch(size_t width = 1024, int depth = 4);

  void Add(uint64_t key, uint64_t count = 1);
  uint64_t Estimate(uint64_t key) const;
  void Clear();

  uint64_t total() const { return total_; }
  size_t width() const { return width_; }
  int depth() const { return depth_; }

 private:
  size_t width_;
  int depth_;
  uint64_t total_ = 0;
  std::vector<uint64_t> counts_;  // depth rows x width, row-major
};

// Per-cluster centroids of the training embedding distribution plus the
// occupancy (fraction of training points) of each cluster and the distance
// beyond which a point counts as an outlier (a quantile of the training
// nearest-centroid distances).
struct CentroidSet {
  std::vector<std::vector<float>> centroids;  // k rows of dim floats
  std::vector<double> occupancy;              // sums to 1 over clusters
  float outlier_threshold = 0.0f;

  int cluster_count() const { return static_cast<int>(centroids.size()); }
  size_t dim() const { return centroids.empty() ? 0 : centroids[0].size(); }
};

// Euclidean distance to the nearest centroid; returns its index (-1 when
// the set is empty) and writes the distance through `distance` if non-null.
int NearestCentroid(const CentroidSet& set, const float* point, size_t dim,
                    float* distance);

// Lloyd's k-means with k-means++ seeding, fully deterministic given `rng`.
// Empty clusters are re-seeded from the point currently farthest from its
// centroid. Fills `occupancy` from the final assignment; the caller sets
// outlier_threshold (see drift::DriftBaseline). If `nearest_out` is
// non-null it receives every point's final nearest-centroid distance.
CentroidSet KMeansCluster(const std::vector<std::vector<float>>& points,
                          int k, int iterations, util::Rng* rng,
                          std::vector<float>* nearest_out = nullptr);

}  // namespace qpe::drift

#endif  // QPE_DRIFT_SKETCHES_H_
