#include "encoder/encoder_suite.h"

#include <utility>

#include "nn/serialize.h"

namespace qpe::encoder {

namespace {

const char* const kFileNames[5] = {"structure.qpe", "perf_scan.qpe",
                                   "perf_join.qpe", "perf_sort.qpe",
                                   "perf_aggregate.qpe"};

}  // namespace

EncoderSuite::EncoderSuite(const Config& config) : config_(config) {
  util::Rng rng(config.seed);
  structure_ =
      std::make_unique<TransformerPlanEncoder>(config.structure, &rng);
  for (auto& perf : performance_) {
    perf = std::make_unique<PerformanceEncoder>(config.performance, &rng);
  }
}

tasks::EmbeddingFeaturizer::Config EncoderSuite::FeaturizerConfig(
    const catalog::Catalog* catalog) const {
  tasks::EmbeddingFeaturizer::Config featurizer_config;
  featurizer_config.structure = structure_.get();
  for (int g = 0; g < 4; ++g) {
    featurizer_config.performance[g] = performance_[g].get();
  }
  featurizer_config.catalog = catalog;
  return featurizer_config;
}

std::array<nn::Module*, 5> EncoderSuite::Modules() const {
  return {structure_.get(), performance_[0].get(), performance_[1].get(),
          performance_[2].get(), performance_[3].get()};
}

util::Status EncoderSuite::SaveToDirectory(const std::string& directory) const {
  const std::array<nn::Module*, 5> modules = Modules();
  for (size_t i = 0; i < modules.size(); ++i) {
    if (util::Status s = nn::SaveModuleToFileStatus(
            *modules[i], directory + "/" + kFileNames[i]);
        !s.ok()) {
      return s;
    }
  }
  return util::OkStatus();
}

util::Status EncoderSuite::LoadFromDirectory(const std::string& directory) {
  const std::array<nn::Module*, 5> modules = Modules();
  nn::internal::StagedModule staged[5];
  for (size_t i = 0; i < modules.size(); ++i) {
    if (util::Status s = nn::internal::StageModuleFile(
            modules[i], directory + "/" + kFileNames[i], &staged[i]);
        !s.ok()) {
      return s;
    }
  }
  for (size_t i = 0; i < modules.size(); ++i) {
    nn::internal::CommitModule(modules[i], std::move(staged[i]));
  }
  return util::OkStatus();
}

}  // namespace qpe::encoder
