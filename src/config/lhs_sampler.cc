#include "config/lhs_sampler.h"

namespace qpe::config {

std::vector<DbConfig> LhsSampler::Sample(int n) {
  std::vector<DbConfig> configs(n);
  const auto& table = KnobTable();
  for (int k = 0; k < kNumKnobs; ++k) {
    const KnobInfo& info = table[k];
    const double stratum_width = (info.max_value - info.min_value) / n;
    const std::vector<int> perm = rng_.Permutation(n);
    for (int i = 0; i < n; ++i) {
      const double lo = info.min_value + perm[i] * stratum_width;
      configs[i].Set(static_cast<Knob>(k), lo + rng_.Uniform() * stratum_width);
    }
  }
  return configs;
}

}  // namespace qpe::config
