#ifndef QPE_DRIFT_DETECTOR_H_
#define QPE_DRIFT_DETECTOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "drift/baseline.h"
#include "drift/sketches.h"
#include "plan/plan_node.h"

namespace qpe::drift {

// Which sketch dominates a window's fused score — the coarse half of
// attribution ("what kind of drift is this").
enum class DriftComponent : uint8_t {
  kNovelPlans = 0,   // never-before-seen plan fingerprints
  kTokenShift = 1,   // operator-mix change (e.g. a knob flipping scan types)
  kClusterShift = 2, // embedding mass moving between known clusters/outliers
};
const char* DriftComponentName(DriftComponent component);

struct TokenAttribution {
  uint32_t code = 0;
  std::string name;          // "Scan-Heap-Bitmap"
  double baseline_freq = 0;  // fraction of training tokens
  double window_freq = 0;    // fraction of window tokens
  double delta = 0;          // window - baseline (signed)
};

struct ClusterAttribution {
  int cluster = -1;  // -1 is the outlier bucket
  double baseline_occupancy = 0;
  double window_occupancy = 0;
  double delta = 0;
};

// One closed window's verdict. All scores live in [0, 1].
struct DriftWindowReport {
  uint64_t window_index = 0;
  size_t plans = 0;

  double novel_rate = 0;    // fraction of plans with unseen fingerprints
  double novel_score = 0;   // novel_rate above the configured tolerance
  double token_score = 0;   // total-variation distance of token frequencies
  double cluster_score = 0; // total-variation distance of cluster occupancy
  double outlier_rate = 0;  // fraction of embeddings past the threshold

  double score = 0;  // fused: max of the component scores
  DriftComponent dominant = DriftComponent::kNovelPlans;

  // Top-|delta| attribution, largest first.
  std::vector<TokenAttribution> top_tokens;
  std::vector<ClusterAttribution> top_clusters;
};

struct DriftDetectorConfig {
  int window_size = 64;  // plans per window
};

// Folds one served plan + its embedding at a time into the current window;
// when the window closes, compares it against the frozen DriftBaseline and
// emits a DriftWindowReport. Novel plans score only above a 5% rate, each
// report attributes the top 3 tokens and clusters, and the window's token
// counts live in a 1024 x 4 count-min sketch. Single-threaded by design —
// the thread-safe wrapper is drift::DriftSentinel.
class DriftDetector {
 public:
  DriftDetector(DriftBaseline baseline, const DriftDetectorConfig& config = {});

  // Folds in one served plan: its DFS-bracket linearization, that
  // linearization's fingerprint, and its served embedding (baseline().dim
  // floats). Returns a report iff this observation closed a window.
  std::optional<DriftWindowReport> ObserveTokens(
      const std::vector<plan::OperatorType>& tokens, uint64_t fingerprint,
      const float* embedding, size_t dim);

  // Swaps in a fresh baseline (post-adaptation) and resets the window.
  void Rebaseline(DriftBaseline baseline);

  const DriftBaseline& baseline() const { return baseline_; }
  uint64_t windows_closed() const { return windows_closed_; }

 private:
  DriftWindowReport CloseWindow();
  void ResetWindow();

  DriftBaseline baseline_;
  DriftDetectorConfig config_;
  uint64_t windows_closed_ = 0;

  // Current-window accumulators.
  size_t window_plans_ = 0;
  size_t window_novel_ = 0;
  CountMinSketch window_tokens_;
  uint64_t window_token_total_ = 0;
  std::unordered_set<uint32_t> window_codes_;  // distinct codes this window
  std::vector<uint64_t> window_cluster_counts_;  // k clusters + outlier slot
};

}  // namespace qpe::drift

#endif  // QPE_DRIFT_DETECTOR_H_
