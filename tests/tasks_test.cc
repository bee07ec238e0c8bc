#include <cmath>
#include <cstring>
#include <memory>

#include "config/lhs_sampler.h"
#include "data/datasets.h"
#include "data/features.h"
#include "encoder/performance_encoder.h"
#include "encoder/structure_encoder.h"
#include "gtest/gtest.h"
#include "nn/simd.h"
#include "simdb/workload_runner.h"
#include "simdb/workloads.h"
#include "tasks/baselines.h"
#include "tasks/classifier.h"
#include "tasks/embeddings.h"
#include "tasks/latency_model.h"
#include "tasks/qppnet.h"

namespace qpe::tasks {
namespace {

// Small executed-query dataset shared by the latency tests.
std::vector<simdb::ExecutedQuery> MakeExecuted(int num_configs = 8) {
  const simdb::TpchWorkload tpch(0.05);
  config::LhsSampler sampler((util::Rng(1)));
  const auto configs = sampler.Sample(num_configs);
  simdb::RunOptions options;
  options.instances_per_template = 2;
  return simdb::RunWorkloadTemplates(tpch, {0, 2, 3, 5, 10, 13}, configs,
                                     options);
}

void SplitTrainTest(const std::vector<simdb::ExecutedQuery>& all,
                    std::vector<simdb::ExecutedQuery>* train,
                    std::vector<simdb::ExecutedQuery>* test) {
  for (size_t i = 0; i < all.size(); ++i) {
    simdb::ExecutedQuery copy;
    copy.query = all[i].query.CloneDeep();
    copy.db_config = all[i].db_config;
    copy.latency_ms = all[i].latency_ms;
    copy.template_index = all[i].template_index;
    (i % 5 == 0 ? test : train)->push_back(std::move(copy));
  }
}

double MeanPredictorMae(const std::vector<simdb::ExecutedQuery>& train,
                        const std::vector<simdb::ExecutedQuery>& test) {
  double mean = 0;
  for (const auto& r : train) mean += r.latency_ms;
  mean /= train.size();
  double mae = 0;
  for (const auto& r : test) mae += std::abs(r.latency_ms - mean);
  return mae / test.size();
}

TEST(SolveRidgeTest, SolvesLinearSystem) {
  // A = [[2,0],[0,4]], b = [2, 8] -> x = [1, 2] (lambda=0).
  const auto x = SolveRidge({{2, 0}, {0, 4}}, {2, 8}, 0.0);
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 2.0, 1e-9);
}

TEST(SolveRidgeTest, RidgeShrinks) {
  const auto x = SolveRidge({{1, 0}, {0, 1}}, {1, 1}, 1.0);
  EXPECT_NEAR(x[0], 0.5, 1e-9);
}

TEST(PlanLevelFeaturesTest, FixedDim) {
  const auto executed = MakeExecuted(2);
  const size_t dim = PlanLevelFeatures(executed[0]).size();
  for (const auto& record : executed) {
    EXPECT_EQ(PlanLevelFeatures(record).size(), dim);
  }
}

TEST(BaselinesTest, AllBaselinesBeatOrMatchMeanPredictor) {
  const auto all = MakeExecuted();
  std::vector<simdb::ExecutedQuery> train, test;
  SplitTrainTest(all, &train, &test);
  const double mean_mae = MeanPredictorMae(train, test);

  TamBaseline tam;
  SvrBaseline svr;
  RbfBaseline rbf;
  for (LatencyBaseline* baseline :
       std::vector<LatencyBaseline*>{&tam, &svr, &rbf}) {
    baseline->Train(train);
    const double mae = baseline->EvaluateMaeMs(test);
    EXPECT_GT(mae, 0) << baseline->name();
    EXPECT_LT(mae, mean_mae * 1.5) << baseline->name();
  }
}

TEST(BaselinesTest, RbfInterpolatesTrainPoints) {
  const auto all = MakeExecuted(4);
  std::vector<simdb::ExecutedQuery> train, test;
  SplitTrainTest(all, &train, &test);
  RbfBaseline rbf;
  rbf.Train(train);
  // On its own training points RBF should do quite well.
  EXPECT_LT(rbf.EvaluateMaeMs(train), MeanPredictorMae(train, train));
}

TEST(QppNetTest, TrainsAndPredicts) {
  const auto all = MakeExecuted(4);
  std::vector<simdb::ExecutedQuery> train, test;
  SplitTrainTest(all, &train, &test);
  QppNet::Config config;
  config.epochs = 8;
  util::Rng rng(2);
  QppNet qppnet(config, &rng);
  qppnet.Train(train);
  const double mae = qppnet.EvaluateMaeMs(test);
  EXPECT_GT(mae, 0);
  EXPECT_LT(mae, MeanPredictorMae(train, test) * 2.0);
}

TEST(EmbeddingFeaturizerTest, DimsAndAblations) {
  util::Rng rng(3);
  encoder::StructureEncoderConfig s_config;
  s_config.level1_dim = 12;
  s_config.level2_dim = 6;
  s_config.level3_dim = 6;
  s_config.num_heads = 2;
  s_config.ff_dim = 32;
  s_config.num_layers = 1;
  s_config.dropout = 0;
  encoder::TransformerPlanEncoder structure(s_config, &rng);
  encoder::PerfEncoderConfig p_config;
  p_config.db_dim = config::DbConfig::FeatureDim();
  p_config.meta_dim = catalog::Catalog::kMetaFeatureDim;
  p_config.node_dim = data::kNodeFeatureDim;
  p_config.column_hidden = 8;
  p_config.embed_dim = 8;
  encoder::PerformanceEncoder scan_encoder(p_config, &rng);

  const simdb::TpchWorkload tpch(0.05);
  const auto executed = MakeExecuted(2);

  EmbeddingFeaturizer::Config both;
  both.structure = &structure;
  both.performance[static_cast<int>(plan::OperatorGroup::kScan)] = &scan_encoder;
  both.catalog = &tpch.GetCatalog();
  EmbeddingFeaturizer featurizer(both);
  // structure (24) + scan embedding (8) + scan group predictions (3) + db.
  EXPECT_EQ(featurizer.FeatureDim(),
            24 + 8 + 3 + config::DbConfig::FeatureDim());
  EXPECT_EQ(static_cast<int>(featurizer.Featurize(executed[0]).size()),
            featurizer.FeatureDim());

  EmbeddingFeaturizer::Config structure_only;
  structure_only.structure = &structure;
  structure_only.include_db_features = false;
  EmbeddingFeaturizer s_featurizer(structure_only);
  EXPECT_EQ(s_featurizer.FeatureDim(), 24);
}

TEST(EmbeddingFeaturizerTest, FeaturizeAllMatchesPerRecordBitwise) {
  // FeaturizeAll encodes every plan in one packed forward under a
  // NoGradGuard; per-record Featurize runs the per-plan op chain. Every
  // row must carry the same bits, at the scalar level and the host's.
  util::Rng rng(5);
  encoder::StructureEncoderConfig s_config;
  s_config.level1_dim = 12;
  s_config.level2_dim = 6;
  s_config.level3_dim = 6;
  s_config.num_heads = 2;
  s_config.ff_dim = 32;
  s_config.num_layers = 2;
  s_config.output_dim = 10;
  encoder::TransformerPlanEncoder structure(s_config, &rng);
  encoder::PerfEncoderConfig p_config;
  p_config.column_hidden = 8;
  p_config.embed_dim = 8;
  encoder::PerformanceEncoder scan_encoder(p_config, &rng);
  encoder::PerformanceEncoder join_encoder(p_config, &rng);

  const simdb::TpchWorkload tpch(0.05);
  const auto executed = MakeExecuted(2);
  EmbeddingFeaturizer::Config config;
  config.structure = &structure;
  config.performance[static_cast<int>(plan::OperatorGroup::kScan)] =
      &scan_encoder;
  config.performance[static_cast<int>(plan::OperatorGroup::kJoin)] =
      &join_encoder;
  config.catalog = &tpch.GetCatalog();
  const EmbeddingFeaturizer featurizer(config);

  const nn::simd::Level saved = nn::simd::ActiveLevel();
  for (const nn::simd::Level level :
       {nn::simd::Level::kScalar, nn::simd::HardwareLevel()}) {
    if (nn::simd::ForceLevel(level) != level) continue;  // sanitize build
    const std::vector<std::vector<float>> rows =
        featurizer.FeaturizeAll(executed);
    ASSERT_EQ(rows.size(), executed.size());
    for (size_t i = 0; i < executed.size(); ++i) {
      const std::vector<float> want = featurizer.Featurize(executed[i]);
      ASSERT_EQ(rows[i].size(), want.size());
      EXPECT_EQ(std::memcmp(rows[i].data(), want.data(),
                            sizeof(float) * want.size()),
                0)
          << "record " << i << " level " << nn::simd::LevelName(level);
    }
  }
  nn::simd::ForceLevel(saved);
}

TEST(LatencyPredictorTest, BeatsMeanPredictor) {
  const auto all = MakeExecuted();
  std::vector<simdb::ExecutedQuery> train, test;
  SplitTrainTest(all, &train, &test);

  const simdb::TpchWorkload tpch(0.05);
  util::Rng rng(4);
  encoder::PerfEncoderConfig p_config;
  p_config.column_hidden = 16;
  p_config.embed_dim = 16;
  encoder::PerformanceEncoder scan_enc(p_config, &rng);
  encoder::PerformanceEncoder join_enc(p_config, &rng);

  EmbeddingFeaturizer::Config f_config;
  f_config.performance[static_cast<int>(plan::OperatorGroup::kScan)] = &scan_enc;
  f_config.performance[static_cast<int>(plan::OperatorGroup::kJoin)] = &join_enc;
  f_config.catalog = &tpch.GetCatalog();
  EmbeddingFeaturizer featurizer(f_config);

  LatencyPredictor predictor(&featurizer, 32, &rng);
  LatencyPredictor::TrainOptions options;
  options.epochs = 120;
  predictor.Train(train, options);
  EXPECT_LT(predictor.EvaluateMaeMs(test), MeanPredictorMae(train, test));
}

TEST(QueryClassifierTest, LearnsSeparableFeatures) {
  // Toy: 12 templates in 4 clusters; features = noisy one-hot template.
  const int num_templates = 12, num_clusters = 4;
  std::vector<int> template_to_cluster(num_templates);
  for (int t = 0; t < num_templates; ++t) template_to_cluster[t] = t / 3;

  util::Rng rng(5);
  std::vector<std::vector<float>> features;
  std::vector<int> labels;
  for (int i = 0; i < 360; ++i) {
    const int t = i % num_templates;
    std::vector<float> row(num_templates + 2);
    for (auto& v : row) v = static_cast<float>(rng.Normal(0, 0.3));
    row[t] += 2.0f;
    features.push_back(std::move(row));
    labels.push_back(t);
  }

  QueryClassifier::Config config;
  config.feature_dim = num_templates + 2;
  config.hidden_dim = 24;
  config.num_templates = num_templates;
  config.num_clusters = num_clusters;
  config.template_to_cluster = template_to_cluster;
  QueryClassifier classifier(config, &rng);
  QueryClassifier::TrainOptions options;
  options.epochs = 30;
  classifier.Train(features, labels, options);
  const auto accuracy = classifier.Evaluate(features, labels);
  EXPECT_GT(accuracy.template_accuracy, 0.8);
  EXPECT_GE(accuracy.cluster_accuracy, accuracy.template_accuracy);
}

TEST(QueryClassifierTest, ClusterAccuracyAtLeastTemplateOnAmbiguous) {
  // Features only identify the cluster (not the template within it): the
  // cluster accuracy should be high while template accuracy stays near
  // 1/templates-per-cluster.
  const int num_templates = 8, num_clusters = 4;
  std::vector<int> template_to_cluster = {0, 0, 1, 1, 2, 2, 3, 3};
  util::Rng rng(6);
  std::vector<std::vector<float>> features;
  std::vector<int> labels;
  for (int i = 0; i < 240; ++i) {
    const int t = i % num_templates;
    std::vector<float> row(num_clusters);
    for (auto& v : row) v = static_cast<float>(rng.Normal(0, 0.2));
    row[template_to_cluster[t]] += 2.0f;
    features.push_back(std::move(row));
    labels.push_back(t);
  }
  QueryClassifier::Config config;
  config.feature_dim = num_clusters;
  config.hidden_dim = 16;
  config.num_templates = num_templates;
  config.num_clusters = num_clusters;
  config.template_to_cluster = template_to_cluster;
  QueryClassifier classifier(config, &rng);
  QueryClassifier::TrainOptions options;
  options.epochs = 25;
  classifier.Train(features, labels, options);
  const auto accuracy = classifier.Evaluate(features, labels);
  EXPECT_GT(accuracy.cluster_accuracy, 0.85);
  EXPECT_LT(accuracy.template_accuracy, 0.8);
}

}  // namespace
}  // namespace qpe::tasks
