#include "drift/baseline.h"

#include <algorithm>
#include <cmath>

#include "nn/arena.h"
#include "nn/tensor.h"
#include "plan/fingerprint.h"
#include "plan/linearize.h"
#include "util/rng.h"

namespace qpe::drift {
namespace {

constexpr int kClusters = 4;
constexpr int kKMeansIterations = 25;
constexpr size_t kBloomBits = 1u << 16;
constexpr int kBloomHashes = 4;
// Quantile of training nearest-centroid distances used as the outlier
// threshold; 1 - quantile of training points land in the outlier bucket
// by construction, which is the bucket's baseline occupancy.
constexpr double kOutlierQuantile = 0.95;
constexpr uint64_t kKMeansSeed = 17;

}  // namespace

uint32_t TokenCode(const plan::OperatorType& type) {
  return (static_cast<uint32_t>(type.level1) << 16) |
         (static_cast<uint32_t>(type.level2) << 8) |
         static_cast<uint32_t>(type.level3);
}

bool IsStructuralToken(const plan::OperatorType& type) {
  const plan::Taxonomy& tax = plan::Taxonomy::Get();
  const int l1 = type.level1;
  return l1 == tax.br_open() || l1 == tax.br_close() || l1 == tax.cls() ||
         l1 == tax.sep();
}

std::string TokenCodeName(uint32_t code) {
  const plan::OperatorType type(static_cast<uint8_t>((code >> 16) & 0xFF),
                                static_cast<uint8_t>((code >> 8) & 0xFF),
                                static_cast<uint8_t>(code & 0xFF));
  return type.ToString(/*full=*/false);
}

DriftBaseline BuildDriftBaseline(
    const encoder::PlanSequenceEncoder& encoder,
    const std::vector<const plan::PlanNode*>& plans) {
  DriftBaseline baseline;
  baseline.dim = encoder.output_dim();
  baseline.plans = plans.size();
  baseline.bloom = BloomFilter(kBloomBits, kBloomHashes);
  baseline.outlier_occupancy = 1.0 - kOutlierQuantile;
  if (plans.empty()) return baseline;

  // Token frequencies + fingerprint bloom straight off the linearizations.
  std::unordered_map<uint32_t, uint64_t> token_counts;
  uint64_t total_tokens = 0;
  for (const plan::PlanNode* plan : plans) {
    const std::vector<plan::OperatorType> tokens =
        plan::LinearizeDfsBracket(*plan);
    baseline.bloom.Insert(plan::FingerprintTokens(tokens));
    for (const plan::OperatorType& token : tokens) {
      if (IsStructuralToken(token)) continue;
      ++token_counts[TokenCode(token)];
      ++total_tokens;
    }
  }
  if (total_tokens > 0) {
    for (const auto& [code, count] : token_counts) {
      baseline.token_freq[code] =
          static_cast<double>(count) / static_cast<double>(total_tokens);
    }
  }

  // Embedding-space summary: encode everything (eval mode), cluster, and
  // set the outlier threshold at kOutlierQuantile of the training
  // nearest-centroid distances. Encoding goes in serving-sized chunks: the
  // calling thread's packed workspace keeps its high-water mark for the
  // thread's life, and one whole-corpus batch (rebuilt over ever larger
  // corpora after each adaptation) would pin a corpus-sized one. Bitwise
  // neutral, since Encode == EncodeBatch.
  std::vector<std::vector<float>> points;
  points.reserve(plans.size());
  {
    nn::ArenaScope arena;
    nn::NoGradGuard no_grad;
    for (size_t begin = 0; begin < plans.size();
         begin += kBaselineEncodeChunk) {
      const size_t n = std::min(kBaselineEncodeChunk, plans.size() - begin);
      const std::vector<nn::Tensor> embedded = encoder.EncodeBatch(
          std::span<const plan::PlanNode* const>(plans.data() + begin, n),
          /*dropout_rng=*/nullptr);
      for (const nn::Tensor& t : embedded) points.push_back(t.value());
    }
  }
  util::Rng rng(kKMeansSeed);
  std::vector<float> nearest;
  baseline.centroids =
      KMeansCluster(points, kClusters, kKMeansIterations, &rng, &nearest);
  if (!nearest.empty()) {
    std::sort(nearest.begin(), nearest.end());
    const size_t idx = std::min(
        nearest.size() - 1,
        static_cast<size_t>(
            kOutlierQuantile * static_cast<double>(nearest.size() - 1) + 0.5));
    baseline.centroids.outlier_threshold = nearest[idx];
  }
  return baseline;
}

}  // namespace qpe::drift
