#include <set>
#include <vector>

#include "config/db_config.h"
#include "config/lhs_sampler.h"
#include "gtest/gtest.h"
#include "util/rng.h"
#include "util/stats.h"

namespace qpe::config {
namespace {

TEST(DbConfigTest, ThirteenKnobs) {
  EXPECT_EQ(kNumKnobs, 13);
  EXPECT_EQ(KnobTable().size(), 13u);
}

TEST(DbConfigTest, DefaultIsMidpoint) {
  DbConfig config;
  for (int k = 0; k < kNumKnobs; ++k) {
    const KnobInfo& info = KnobTable()[k];
    EXPECT_DOUBLE_EQ(config.Get(static_cast<Knob>(k)),
                     0.5 * (info.min_value + info.max_value));
  }
}

TEST(DbConfigTest, SetGetRoundTrip) {
  DbConfig config;
  config.Set(Knob::kWorkMem, 123456.0);
  EXPECT_DOUBLE_EQ(config.Get(Knob::kWorkMem), 123456.0);
}

TEST(DbConfigTest, FeatureDimIncludesLogFeatures) {
  int log_knobs = 0;
  for (const auto& info : KnobTable()) log_knobs += info.log_scale_feature;
  EXPECT_EQ(DbConfig::FeatureDim(), kNumKnobs + log_knobs);
  EXPECT_EQ(static_cast<int>(DbConfig().ToFeatures().size()),
            DbConfig::FeatureDim());
}

TEST(DbConfigTest, RawFeaturesNormalizedToUnit) {
  DbConfig config;
  for (int k = 0; k < kNumKnobs; ++k) {
    config.Set(static_cast<Knob>(k), KnobTable()[k].max_value);
  }
  const std::vector<double> features = config.ToFeatures();
  for (int k = 0; k < kNumKnobs; ++k) {
    EXPECT_DOUBLE_EQ(features[k], 1.0);
  }
}

TEST(DbConfigTest, KnobRangesContainPaperPercentiles) {
  // Spot-check a few Table 5 values sit inside our sampling ranges.
  EXPECT_LE(GetKnobInfo(Knob::kWorkMem).min_value, 1048576.0);       // 5th pct
  EXPECT_GE(GetKnobInfo(Knob::kWorkMem).max_value, 31457280.0);      // 95th
  EXPECT_LE(GetKnobInfo(Knob::kSharedBuffers).min_value, 131072.0);  // 5th
  EXPECT_GE(GetKnobInfo(Knob::kSharedBuffers).max_value, 3932160.0);
  EXPECT_LE(GetKnobInfo(Knob::kEffectiveCacheSize).min_value, 131072.0);
  EXPECT_GE(GetKnobInfo(Knob::kEffectiveCacheSize).max_value, 1966080.0);
}

TEST(LhsSamplerTest, ValuesWithinRanges) {
  LhsSampler sampler(util::Rng(1));
  for (const DbConfig& config : sampler.Sample(50)) {
    for (int k = 0; k < kNumKnobs; ++k) {
      const KnobInfo& info = KnobTable()[k];
      EXPECT_GE(config.Get(static_cast<Knob>(k)), info.min_value);
      EXPECT_LE(config.Get(static_cast<Knob>(k)), info.max_value);
    }
  }
}

TEST(LhsSamplerTest, OneSamplePerStratum) {
  // The defining LHS property: with n samples, each of the n equal strata of
  // every knob contains exactly one sample.
  const int n = 40;
  LhsSampler sampler(util::Rng(2));
  const std::vector<DbConfig> configs = sampler.Sample(n);
  for (int k = 0; k < kNumKnobs; ++k) {
    const KnobInfo& info = KnobTable()[k];
    const double width = (info.max_value - info.min_value) / n;
    std::set<int> strata;
    for (const DbConfig& config : configs) {
      const double v = config.Get(static_cast<Knob>(k));
      int stratum = static_cast<int>((v - info.min_value) / width);
      stratum = std::min(stratum, n - 1);
      strata.insert(stratum);
    }
    EXPECT_EQ(strata.size(), static_cast<size_t>(n)) << "knob " << info.name;
  }
}

TEST(LhsSamplerTest, MedianNearMidpoint) {
  LhsSampler sampler(util::Rng(3));
  const std::vector<DbConfig> configs = sampler.Sample(200);
  for (int k = 0; k < kNumKnobs; ++k) {
    const KnobInfo& info = KnobTable()[k];
    std::vector<double> values;
    for (const DbConfig& config : configs) {
      values.push_back(config.Get(static_cast<Knob>(k)));
    }
    const double mid = 0.5 * (info.min_value + info.max_value);
    const double span = info.max_value - info.min_value;
    EXPECT_NEAR(util::Median(values), mid, 0.05 * span) << info.name;
  }
}

TEST(LhsSamplerTest, DeterministicForSameSeed) {
  LhsSampler a(util::Rng(9)), b(util::Rng(9));
  const auto ca = a.Sample(10);
  const auto cb = b.Sample(10);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ca[i].values(), cb[i].values());
  }
}

}  // namespace
}  // namespace qpe::config
