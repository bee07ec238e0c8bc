#ifndef QPE_ENCODER_ENCODER_SUITE_H_
#define QPE_ENCODER_ENCODER_SUITE_H_

#include <array>
#include <memory>
#include <string>

#include "encoder/performance_encoder.h"
#include "encoder/structure_encoder.h"
#include "tasks/embeddings.h"
#include "util/status.h"

namespace qpe::encoder {

// The full pretrained package the paper envisions shipping with a database
// ("databases will come with prepackaged AI models"): one structure encoder
// plus one performance encoder per operator family, with one-call
// checkpointing. This is the deployment-facing API; the training drivers in
// ppsr.h / performance_encoder.h produce the weights.
class EncoderSuite {
 public:
  struct Config {
    StructureEncoderConfig structure;
    PerfEncoderConfig performance;
    uint64_t seed = 2021;
  };

  EncoderSuite() : EncoderSuite(Config()) {}
  explicit EncoderSuite(const Config& config);

  TransformerPlanEncoder* structure() { return structure_.get(); }
  const TransformerPlanEncoder* structure() const { return structure_.get(); }
  PerformanceEncoder* performance(plan::OperatorGroup group) {
    return performance_[static_cast<int>(group)].get();
  }
  const PerformanceEncoder* performance(plan::OperatorGroup group) const {
    return performance_[static_cast<int>(group)].get();
  }

  // Featurizer configuration wired to this suite's encoders.
  tasks::EmbeddingFeaturizer::Config FeaturizerConfig(
      const catalog::Catalog* catalog) const;

  // Writes/reads structure.qpe and perf_{scan,join,sort,aggregate}.qpe under
  // `directory` (which must exist); errors name the file and the field
  // (nn/serialize.h). Load requires a suite constructed with the same Config
  // and is transactional: all five files are staged, and the encoders are
  // overwritten only once every one of them parsed.
  util::Status SaveToDirectory(const std::string& directory) const;
  util::Status LoadFromDirectory(const std::string& directory);

  const Config& config() const { return config_; }

 private:
  // The five encoders, in file order.
  std::array<nn::Module*, 5> Modules() const;

  Config config_;
  std::unique_ptr<TransformerPlanEncoder> structure_;
  std::unique_ptr<PerformanceEncoder> performance_[4];
};

}  // namespace qpe::encoder

#endif  // QPE_ENCODER_ENCODER_SUITE_H_
