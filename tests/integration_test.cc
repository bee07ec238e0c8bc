// End-to-end integration: the full deployment story at miniature scale —
// pretrain both encoder families, checkpoint the suite, load it into a
// fresh process-like state, and drive both downstream tasks from the loaded
// weights. This is the test that fails if any stage's contract drifts.

#include <filesystem>

#include "config/lhs_sampler.h"
#include "data/datasets.h"
#include "encoder/encoder_suite.h"
#include "encoder/ppsr.h"
#include "gtest/gtest.h"
#include "nn/serialize.h"
#include "simdb/workload_runner.h"
#include "simdb/workloads.h"
#include "tasks/classifier.h"
#include "tasks/latency_model.h"

namespace qpe {
namespace {

TEST(IntegrationTest, PretrainCheckpointLoadAndServeBothTasks) {
  // ---- 1. Data: one small TPC-H run ------------------------------------
  const simdb::TpchWorkload tpch(0.05);
  config::LhsSampler sampler((util::Rng(1)));
  simdb::RunOptions run_options;
  run_options.instances_per_template = 2;
  const auto executed = simdb::RunWorkloadTemplates(
      tpch, {0, 2, 3, 5, 13, 17}, sampler.Sample(6), run_options);
  ASSERT_EQ(executed.size(), 6u * 2u * 6u);

  // ---- 2. Pretrain the suite -------------------------------------------
  encoder::EncoderSuite::Config suite_config;
  suite_config.structure.dropout = 0.0f;
  encoder::EncoderSuite suite(suite_config);

  // Structure: a few PPSR steps on a tiny corpus (we only need the weights
  // to round-trip, not to be good).
  {
    data::PairDatasetOptions pair_options;
    pair_options.num_pairs = 30;
    pair_options.corpus.max_nodes = 15;
    const auto pairs = data::BuildCorpusPairDataset(pair_options);
    util::Rng rng(2);
    encoder::PpsrModel ppsr(
        std::make_unique<encoder::TransformerPlanEncoder>(
            suite_config.structure, &rng),
        &rng);
    encoder::PpsrTrainOptions options;
    options.epochs = 1;
    encoder::TrainPpsr(&ppsr, pairs.train, options);
    ASSERT_TRUE(nn::CopyParameters(
        *static_cast<const encoder::TransformerPlanEncoder*>(ppsr.encoder()),
        suite.structure()));
  }
  // Performance: train the scan encoder only (others keep init weights).
  {
    auto samples = data::ExtractOperatorSamples(executed, tpch.GetCatalog(),
                                                plan::OperatorGroup::kScan);
    ASSERT_GE(samples.size(), 50u);
    auto dataset = data::SplitOperatorSamples(std::move(samples), 3);
    encoder::PerfTrainOptions options;
    options.epochs = 10;
    encoder::TrainPerformanceEncoder(
        suite.performance(plan::OperatorGroup::kScan), dataset, options);
  }

  // ---- 3. Checkpoint and reload ----------------------------------------
  const std::string dir =
      (std::filesystem::temp_directory_path() / "qpe_integration").string();
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(suite.SaveToDirectory(dir).ok());
  encoder::EncoderSuite::Config fresh_config = suite_config;
  fresh_config.seed = 999;
  encoder::EncoderSuite loaded(fresh_config);
  ASSERT_TRUE(loaded.LoadFromDirectory(dir).ok());
  std::filesystem::remove_all(dir);

  // ---- 4. Downstream: latency prediction from the loaded suite ----------
  tasks::EmbeddingFeaturizer featurizer(
      loaded.FeaturizerConfig(&tpch.GetCatalog()));
  std::vector<simdb::ExecutedQuery> train, test;
  for (size_t i = 0; i < executed.size(); ++i) {
    (i % 5 == 0 ? test : train).push_back(executed[i].Clone());
  }
  util::Rng rng(4);
  tasks::LatencyPredictor predictor(&featurizer, 32, &rng);
  tasks::LatencyPredictor::TrainOptions latency_options;
  latency_options.epochs = 60;
  predictor.Train(train, latency_options);
  double mean = 0;
  for (const auto& record : train) mean += record.latency_ms;
  mean /= train.size();
  double mean_mae = 0;
  for (const auto& record : test) {
    mean_mae += std::abs(record.latency_ms - mean);
  }
  mean_mae /= test.size();
  EXPECT_LT(predictor.EvaluateMaeMs(test), mean_mae);

  // ---- 5. Downstream: classification from the same features -------------
  const auto features = featurizer.FeaturizeAll(executed);
  std::vector<int> labels;
  std::vector<int> unique_templates = {0, 2, 3, 5, 13, 17};
  for (const auto& record : executed) {
    for (size_t u = 0; u < unique_templates.size(); ++u) {
      if (unique_templates[u] == record.template_index) {
        labels.push_back(static_cast<int>(u));
      }
    }
  }
  ASSERT_EQ(labels.size(), executed.size());
  tasks::QueryClassifier::Config c_config;
  c_config.feature_dim = featurizer.FeatureDim();
  c_config.hidden_dim = 32;
  c_config.num_templates = 6;
  c_config.num_clusters = 3;
  c_config.template_to_cluster = {0, 0, 1, 1, 2, 2};
  tasks::QueryClassifier classifier(c_config, &rng);
  tasks::QueryClassifier::TrainOptions classifier_options;
  classifier_options.epochs = 25;
  classifier.Train(features, labels, classifier_options);
  const auto accuracy = classifier.Evaluate(features, labels);
  // Six very different TPC-H templates: near-perfect separation expected.
  EXPECT_GT(accuracy.template_accuracy, 0.8);
  EXPECT_GE(accuracy.cluster_accuracy, accuracy.template_accuracy);
}

}  // namespace
}  // namespace qpe
