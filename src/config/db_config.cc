#include "config/db_config.h"

#include <cmath>

namespace qpe::config {

const std::array<KnobInfo, kNumKnobs>& KnobTable() {
  // Ranges chosen so that the paper's Table 5 5th/95th percentiles sit just
  // inside [min, max]; LHS over these ranges regenerates Table 5's shape.
  static const std::array<KnobInfo, kNumKnobs> kTable = {{
      {"bgwriter_delay", "ms", 100.0, 10000.0, false},
      {"bgwriter_lru_maxpages", "integer", 10.0, 1000.0, false},
      {"checkpoint_timeout", "ms", 30.0, 570.0, false},
      {"deadlock_timeout", "ms", 1000.0, 570000.0, false},
      {"default_statistics_target", "integer", 10.0, 10000.0, false},
      {"effective_cache_size", "bytes", 65536.0, 2097152.0, true},
      {"effective_io_concurrency", "integer", 1.0, 100.0, false},
      {"maintenance_work_mem", "bytes", 131072.0, 16777216.0, true},
      {"max_stack_depth", "integer", 100.0, 5400.0, false},
      {"random_page_cost", "number", 100.0, 10000.0, false},
      {"shared_buffers", "bytes", 16384.0, 4194304.0, true},
      {"wal_buffers", "bytes", 2048.0, 131072.0, true},
      {"work_mem", "bytes", 65536.0, 33554432.0, true},
  }};
  return kTable;
}

const KnobInfo& GetKnobInfo(Knob knob) {
  return KnobTable()[static_cast<size_t>(knob)];
}

DbConfig::DbConfig() {
  const auto& table = KnobTable();
  for (int i = 0; i < kNumKnobs; ++i) {
    values_[i] = 0.5 * (table[i].min_value + table[i].max_value);
  }
}

std::vector<double> DbConfig::ToFeatures() const {
  std::vector<double> features;
  features.reserve(FeatureDim());
  const auto& table = KnobTable();
  for (int i = 0; i < kNumKnobs; ++i) {
    // Normalize raw values into [0, 1] over the sampling range so they are
    // learnable, and append log1p for the wide-range byte-valued knobs.
    const KnobInfo& info = table[i];
    features.push_back((values_[i] - info.min_value) /
                       (info.max_value - info.min_value));
  }
  for (int i = 0; i < kNumKnobs; ++i) {
    if (table[i].log_scale_feature) {
      features.push_back(std::log1p(values_[i]) / 25.0);
    }
  }
  return features;
}

int DbConfig::FeatureDim() {
  int dim = kNumKnobs;
  for (const auto& info : KnobTable()) {
    if (info.log_scale_feature) ++dim;
  }
  return dim;
}

}  // namespace qpe::config
