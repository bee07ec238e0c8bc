#include "drift/sketches.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace qpe::drift {

using util::Mix64;

BloomFilter::BloomFilter(size_t bits, int hashes)
    : bits_(((std::max<size_t>(bits, 64) + 63) / 64) * 64),
      hashes_(std::max(hashes, 1)),
      words_(bits_ / 64, 0) {}

void BloomFilter::Insert(uint64_t key) {
  const uint64_t h1 = Mix64(key);
  const uint64_t h2 = Mix64(key ^ 0xA24BAED4963EE407ULL) | 1;  // odd stride
  for (int i = 0; i < hashes_; ++i) {
    const uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % bits_;
    words_[bit >> 6] |= (1ULL << (bit & 63));
  }
  ++inserted_;
}

bool BloomFilter::MightContain(uint64_t key) const {
  const uint64_t h1 = Mix64(key);
  const uint64_t h2 = Mix64(key ^ 0xA24BAED4963EE407ULL) | 1;
  for (int i = 0; i < hashes_; ++i) {
    const uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % bits_;
    if ((words_[bit >> 6] & (1ULL << (bit & 63))) == 0) return false;
  }
  return true;
}

double BloomFilter::FillRatio() const {
  uint64_t set = 0;
  for (uint64_t w : words_) set += static_cast<uint64_t>(std::popcount(w));
  return static_cast<double>(set) / static_cast<double>(bits_);
}

CountMinSketch::CountMinSketch(size_t width, int depth)
    : width_(std::max<size_t>(width, 16)),
      depth_(std::max(depth, 1)),
      counts_(width_ * static_cast<size_t>(depth_), 0) {}

void CountMinSketch::Add(uint64_t key, uint64_t count) {
  for (int row = 0; row < depth_; ++row) {
    const uint64_t h =
        Mix64(key ^ (0x6C62272E07BB0142ULL * static_cast<uint64_t>(row + 1)));
    counts_[static_cast<size_t>(row) * width_ + h % width_] += count;
  }
  total_ += count;
}

uint64_t CountMinSketch::Estimate(uint64_t key) const {
  uint64_t best = std::numeric_limits<uint64_t>::max();
  for (int row = 0; row < depth_; ++row) {
    const uint64_t h =
        Mix64(key ^ (0x6C62272E07BB0142ULL * static_cast<uint64_t>(row + 1)));
    best = std::min(best,
                    counts_[static_cast<size_t>(row) * width_ + h % width_]);
  }
  return best == std::numeric_limits<uint64_t>::max() ? 0 : best;
}

void CountMinSketch::Clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
}

namespace {

float SquaredDistance(const float* a, const float* b, size_t dim) {
  float sum = 0.0f;
  for (size_t i = 0; i < dim; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

}  // namespace

int NearestCentroid(const CentroidSet& set, const float* point, size_t dim,
                    float* distance) {
  int best = -1;
  float best_sq = std::numeric_limits<float>::max();
  for (int c = 0; c < set.cluster_count(); ++c) {
    if (set.centroids[c].size() != dim) continue;
    const float sq = SquaredDistance(set.centroids[c].data(), point, dim);
    if (sq < best_sq) {
      best_sq = sq;
      best = c;
    }
  }
  if (distance != nullptr) {
    *distance = best < 0 ? 0.0f : std::sqrt(best_sq);
  }
  return best;
}

CentroidSet KMeansCluster(const std::vector<std::vector<float>>& points,
                          int k, int iterations, util::Rng* rng,
                          std::vector<float>* nearest_out) {
  CentroidSet set;
  if (points.empty() || k <= 0) return set;
  const size_t dim = points[0].size();
  const int n = static_cast<int>(points.size());
  k = std::min(k, n);

  // k-means++ seeding: first centroid uniform, the rest proportional to the
  // squared distance from the nearest chosen centroid.
  std::vector<float> d2(n, std::numeric_limits<float>::max());
  set.centroids.push_back(points[rng->UniformInt(0, n - 1)]);
  while (static_cast<int>(set.centroids.size()) < k) {
    double total = 0;
    for (int i = 0; i < n; ++i) {
      d2[i] = std::min(d2[i], SquaredDistance(set.centroids.back().data(),
                                              points[i].data(), dim));
      total += d2[i];
    }
    int pick = 0;
    if (total > 0) {
      double target = rng->Uniform() * total;
      for (int i = 0; i < n; ++i) {
        target -= d2[i];
        if (target <= 0) {
          pick = i;
          break;
        }
      }
    } else {
      pick = static_cast<int>(rng->UniformInt(0, n - 1));
    }
    set.centroids.push_back(points[pick]);
  }

  std::vector<int> assignment(n, 0);
  for (int iter = 0; iter < std::max(iterations, 1); ++iter) {
    bool moved = false;
    for (int i = 0; i < n; ++i) {
      const int c = NearestCentroid(set, points[i].data(), dim, nullptr);
      if (c != assignment[i]) {
        assignment[i] = c;
        moved = true;
      }
    }
    std::vector<std::vector<double>> sums(
        k, std::vector<double>(dim, 0.0));
    std::vector<int> counts(k, 0);
    for (int i = 0; i < n; ++i) {
      for (size_t d = 0; d < dim; ++d) sums[assignment[i]][d] += points[i][d];
      ++counts[assignment[i]];
    }
    for (int c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster from the point farthest from its centroid.
        int farthest = 0;
        float worst = -1.0f;
        for (int i = 0; i < n; ++i) {
          const float sq = SquaredDistance(
              set.centroids[assignment[i]].data(), points[i].data(), dim);
          if (sq > worst) {
            worst = sq;
            farthest = i;
          }
        }
        set.centroids[c] = points[farthest];
        moved = true;
        continue;
      }
      for (size_t d = 0; d < dim; ++d) {
        set.centroids[c][d] =
            static_cast<float>(sums[c][d] / static_cast<double>(counts[c]));
      }
    }
    if (!moved && iter > 0) break;
  }

  // Final assignment for occupancy and the per-point nearest distances.
  std::vector<int> counts(k, 0);
  if (nearest_out != nullptr) nearest_out->assign(n, 0.0f);
  for (int i = 0; i < n; ++i) {
    float dist = 0.0f;
    const int c = NearestCentroid(set, points[i].data(), dim, &dist);
    ++counts[c];
    if (nearest_out != nullptr) (*nearest_out)[i] = dist;
  }
  set.occupancy.resize(k);
  for (int c = 0; c < k; ++c) {
    set.occupancy[c] = static_cast<double>(counts[c]) / static_cast<double>(n);
  }
  return set;
}

}  // namespace qpe::drift
