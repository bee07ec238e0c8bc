#include "drift/detector.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace qpe::drift {
namespace {

// Novel-plan slack: literal jitter and bloom saturation make a small
// trickle of unseen fingerprints normal; only the excess scores.
constexpr double kNovelTolerance = 0.05;
constexpr size_t kTopAttributions = 3;
constexpr size_t kSketchWidth = 1024;
constexpr int kSketchDepth = 4;

}  // namespace

const char* DriftComponentName(DriftComponent component) {
  switch (component) {
    case DriftComponent::kNovelPlans:
      return "novel_plans";
    case DriftComponent::kTokenShift:
      return "token_shift";
    case DriftComponent::kClusterShift:
      return "cluster_shift";
  }
  return "unknown";
}

DriftDetector::DriftDetector(DriftBaseline baseline,
                             const DriftDetectorConfig& config)
    : baseline_(std::move(baseline)),
      config_(config),
      window_tokens_(kSketchWidth, kSketchDepth) {
  config_.window_size = std::max(config_.window_size, 1);
  ResetWindow();
}

void DriftDetector::ResetWindow() {
  window_plans_ = 0;
  window_novel_ = 0;
  window_tokens_.Clear();
  window_token_total_ = 0;
  window_codes_.clear();
  window_cluster_counts_.assign(
      static_cast<size_t>(baseline_.centroids.cluster_count()) + 1, 0);
}

std::optional<DriftWindowReport> DriftDetector::ObserveTokens(
    const std::vector<plan::OperatorType>& tokens, uint64_t fingerprint,
    const float* embedding, size_t dim) {
  if (!baseline_.bloom.MightContain(fingerprint)) {
    ++window_novel_;
  }
  for (const plan::OperatorType& token : tokens) {
    if (IsStructuralToken(token)) continue;
    const uint32_t code = TokenCode(token);
    window_tokens_.Add(code);
    ++window_token_total_;
    window_codes_.insert(code);
  }
  if (embedding != nullptr && dim == static_cast<size_t>(baseline_.dim) &&
      baseline_.centroids.cluster_count() > 0) {
    float distance = 0.0f;
    const int c = NearestCentroid(baseline_.centroids, embedding, dim,
                                  &distance);
    if (distance > baseline_.centroids.outlier_threshold) {
      ++window_cluster_counts_.back();  // outlier bucket
    } else {
      ++window_cluster_counts_[c];
    }
  }
  ++window_plans_;
  if (static_cast<int>(window_plans_) < config_.window_size) {
    return std::nullopt;
  }
  DriftWindowReport report = CloseWindow();
  ResetWindow();
  return report;
}

DriftWindowReport DriftDetector::CloseWindow() {
  DriftWindowReport report;
  report.window_index = windows_closed_++;
  report.plans = window_plans_;
  const double n = static_cast<double>(std::max<size_t>(window_plans_, 1));

  // --- Novel-plan component: share of never-before-seen fingerprints. ---
  report.novel_rate = static_cast<double>(window_novel_) / n;
  report.novel_score = std::max(
      0.0, (report.novel_rate - kNovelTolerance) / (1.0 - kNovelTolerance));

  // --- Token component: total variation over the code registry (union of
  // baseline codes and codes seen this window). The count-min estimate only
  // over-counts, so the TV distance can only over-report — which hysteresis
  // in the monitor absorbs. ---
  std::vector<TokenAttribution> tokens;
  if (window_token_total_ > 0) {
    const double total = static_cast<double>(window_token_total_);
    double tv = 0;
    auto add_token = [&](uint32_t code, double base_freq) {
      const double win_freq =
          static_cast<double>(window_tokens_.Estimate(code)) / total;
      tv += std::abs(win_freq - base_freq);
      TokenAttribution attribution;
      attribution.code = code;
      attribution.baseline_freq = base_freq;
      attribution.window_freq = win_freq;
      attribution.delta = win_freq - base_freq;
      tokens.push_back(std::move(attribution));
    };
    for (const auto& [code, freq] : baseline_.token_freq) {
      add_token(code, freq);
    }
    for (uint32_t code : window_codes_) {
      if (baseline_.token_freq.find(code) == baseline_.token_freq.end()) {
        add_token(code, 0.0);
      }
    }
    report.token_score = std::clamp(0.5 * tv, 0.0, 1.0);
  }

  // --- Cluster component: total variation over k clusters + the outlier
  // bucket. The baseline's outlier bucket holds outlier_occupancy of the
  // training mass by construction; cluster occupancies are scaled by the
  // complement so the baseline distribution sums to 1. ---
  std::vector<ClusterAttribution> clusters;
  uint64_t assigned = 0;
  for (uint64_t c : window_cluster_counts_) assigned += c;
  if (assigned > 0) {
    const double total = static_cast<double>(assigned);
    const int k = baseline_.centroids.cluster_count();
    const double inlier_mass = 1.0 - baseline_.outlier_occupancy;
    double tv = 0;
    for (int c = 0; c <= k; ++c) {
      const bool outlier = c == k;
      const double base = outlier
                              ? baseline_.outlier_occupancy
                              : baseline_.centroids.occupancy[c] * inlier_mass;
      const double win =
          static_cast<double>(window_cluster_counts_[c]) / total;
      tv += std::abs(win - base);
      ClusterAttribution attribution;
      attribution.cluster = outlier ? -1 : c;
      attribution.baseline_occupancy = base;
      attribution.window_occupancy = win;
      attribution.delta = win - base;
      clusters.push_back(attribution);
      if (outlier) report.outlier_rate = win;
    }
    report.cluster_score = std::clamp(0.5 * tv, 0.0, 1.0);
  }

  // --- Fusion + attribution. ---
  report.score = std::max(
      {report.novel_score, report.token_score, report.cluster_score});
  report.dominant = DriftComponent::kNovelPlans;
  if (report.token_score > report.novel_score &&
      report.token_score >= report.cluster_score) {
    report.dominant = DriftComponent::kTokenShift;
  } else if (report.cluster_score > report.novel_score &&
             report.cluster_score > report.token_score) {
    report.dominant = DriftComponent::kClusterShift;
  }

  auto by_abs_delta = [](const auto& a, const auto& b) {
    return std::abs(a.delta) > std::abs(b.delta);
  };
  std::sort(tokens.begin(), tokens.end(), by_abs_delta);
  std::sort(clusters.begin(), clusters.end(), by_abs_delta);
  if (tokens.size() > kTopAttributions) tokens.resize(kTopAttributions);
  if (clusters.size() > kTopAttributions) clusters.resize(kTopAttributions);
  for (TokenAttribution& t : tokens) t.name = TokenCodeName(t.code);
  report.top_tokens = std::move(tokens);
  report.top_clusters = std::move(clusters);
  return report;
}

void DriftDetector::Rebaseline(DriftBaseline baseline) {
  baseline_ = std::move(baseline);
  ResetWindow();
}

}  // namespace qpe::drift
