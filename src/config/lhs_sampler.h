#ifndef QPE_CONFIG_LHS_SAMPLER_H_
#define QPE_CONFIG_LHS_SAMPLER_H_

#include <vector>

#include "config/db_config.h"
#include "util/rng.h"

namespace qpe::config {

// Latin Hypercube Sampling over the knob ranges (paper §4.1, following
// McKay et al. and Audze & Eglajs as in [2, 19]). For n samples, each knob's
// range is divided into n equal strata; each stratum is used exactly once
// per knob, with strata assignments independently permuted across knobs.
class LhsSampler {
 public:
  explicit LhsSampler(util::Rng rng) : rng_(rng) {}

  // Generates `n` configurations covering each knob range uniformly.
  std::vector<DbConfig> Sample(int n);

 private:
  util::Rng rng_;
};

}  // namespace qpe::config

#endif  // QPE_CONFIG_LHS_SAMPLER_H_
