#ifndef QPE_CONFIG_DB_CONFIG_H_
#define QPE_CONFIG_DB_CONFIG_H_

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace qpe::config {

// The 13 PostgreSQL configuration knobs the paper samples with Latin
// Hypercube Sampling (paper Table 5). Order here is the canonical feature
// order everywhere in the library.
enum class Knob : int {
  kBgwriterDelay = 0,
  kBgwriterLruMaxpages,
  kCheckpointTimeout,
  kDeadlockTimeout,
  kDefaultStatisticsTarget,
  kEffectiveCacheSize,
  kEffectiveIoConcurrency,
  kMaintenanceWorkMem,
  kMaxStackDepth,
  kRandomPageCost,
  kSharedBuffers,
  kWalBuffers,
  kWorkMem,
};

inline constexpr int kNumKnobs = 13;

// Static metadata for one knob: name, unit, and the sampling range. The
// ranges are reverse-engineered from the paper's Table 5 (5th/95th
// percentiles of the generated settings), widened slightly so that the
// published percentiles fall inside.
struct KnobInfo {
  const char* name;
  const char* unit;
  double min_value;
  double max_value;
  bool log_scale_feature;  // whether downstream models add log(value) too
};

// Metadata table indexed by static_cast<int>(Knob).
const std::array<KnobInfo, kNumKnobs>& KnobTable();

const KnobInfo& GetKnobInfo(Knob knob);

// A concrete database configuration: one value per knob.
class DbConfig {
 public:
  // Default-constructs with every knob at the midpoint of its range.
  DbConfig();

  double Get(Knob knob) const { return values_[static_cast<int>(knob)]; }
  void Set(Knob knob, double value) { values_[static_cast<int>(knob)] = value; }

  // Raw values in canonical knob order.
  const std::array<double, kNumKnobs>& values() const { return values_; }

  // Feature vector for learned models: raw values followed by log1p-scaled
  // values for knobs flagged log_scale_feature (paper §4: "scaling each
  // database settings with logarithmic function and use them as added
  // features along with the real numbers").
  std::vector<double> ToFeatures() const;

  static int FeatureDim();

 private:
  std::array<double, kNumKnobs> values_;
};

}  // namespace qpe::config

#endif  // QPE_CONFIG_DB_CONFIG_H_
