#include "tasks/workload_similarity.h"

#include <cmath>
#include <limits>

#include "util/rng.h"

namespace qpe::tasks {

std::vector<double> WorkloadEmbedding(
    const encoder::PlanSequenceEncoder& encoder,
    const std::vector<WeightedPlan>& workload) {
  std::vector<double> embedding(encoder.output_dim(), 0.0);
  double total_theta = 0;
  for (const WeightedPlan& entry : workload) total_theta += entry.theta;
  if (total_theta <= 0) return embedding;
  // Encode the whole workload in one batched forward without a graph
  // (bit-identical to per-plan Encode, but the transformer GEMMs amortize
  // across plans).
  std::vector<const plan::PlanNode*> plans;
  std::vector<double> weights;
  plans.reserve(workload.size());
  weights.reserve(workload.size());
  for (const WeightedPlan& entry : workload) {
    if (entry.plan == nullptr) continue;
    plans.push_back(entry.plan);
    weights.push_back(entry.theta / total_theta);
  }
  nn::NoGradGuard no_grad;
  const std::vector<nn::Tensor> encoded = encoder.EncodeBatch(plans, nullptr);
  for (size_t i = 0; i < encoded.size(); ++i) {
    const float* row = encoded[i].value().data();  // [1, dim]
    for (int c = 0; c < encoded[i].cols(); ++c) {
      embedding[c] += weights[i] * row[c];
    }
  }
  return embedding;
}

double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b) {
  if (a.size() != b.size() || a.empty()) return 0;
  double dot = 0, na = 0, nb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na <= 0 || nb <= 0) return 0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  double total = 0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const double d = a[i] - b[i];
    total += d * d;
  }
  return std::sqrt(total);
}

std::vector<int> KMeansCluster(const std::vector<std::vector<double>>& rows,
                               int k, int iterations, uint64_t seed) {
  const int n = static_cast<int>(rows.size());
  if (n == 0 || k <= 0) return {};
  k = std::min(k, n);
  const size_t dim = rows[0].size();
  util::Rng rng(seed);

  // k-means++ style init: first centroid random, then farthest-point.
  std::vector<std::vector<double>> centroids;
  centroids.push_back(rows[rng.UniformInt(0, n - 1)]);
  while (static_cast<int>(centroids.size()) < k) {
    int farthest = 0;
    double best = -1;
    for (int i = 0; i < n; ++i) {
      double nearest = std::numeric_limits<double>::infinity();
      for (const auto& centroid : centroids) {
        nearest = std::min(nearest, EuclideanDistance(rows[i], centroid));
      }
      if (nearest > best) {
        best = nearest;
        farthest = i;
      }
    }
    centroids.push_back(rows[farthest]);
  }

  std::vector<int> assignment(n, 0);
  for (int iter = 0; iter < iterations; ++iter) {
    bool changed = false;
    for (int i = 0; i < n; ++i) {
      int best_cluster = 0;
      double best_distance = std::numeric_limits<double>::infinity();
      for (int c = 0; c < k; ++c) {
        const double d = EuclideanDistance(rows[i], centroids[c]);
        if (d < best_distance) {
          best_distance = d;
          best_cluster = c;
        }
      }
      changed = changed || best_cluster != assignment[i];
      assignment[i] = best_cluster;
    }
    if (!changed && iter > 0) break;
    for (int c = 0; c < k; ++c) {
      std::vector<double> mean(dim, 0.0);
      int count = 0;
      for (int i = 0; i < n; ++i) {
        if (assignment[i] != c) continue;
        for (size_t j = 0; j < dim; ++j) mean[j] += rows[i][j];
        ++count;
      }
      if (count > 0) {
        for (double& v : mean) v /= count;
        centroids[c] = std::move(mean);
      }
    }
  }
  return assignment;
}

}  // namespace qpe::tasks
