#include <cmath>
#include <memory>
#include <sstream>

#include "config/lhs_sampler.h"
#include "data/datasets.h"
#include "data/features.h"
#include "data/plan_corpus.h"
#include "encoder/performance_encoder.h"
#include "encoder/ppsr.h"
#include "encoder/structure_encoder.h"
#include "gtest/gtest.h"
#include "nn/serialize.h"
#include "simdb/workloads.h"
#include "simdb/workload_runner.h"

namespace qpe::encoder {
namespace {

StructureEncoderConfig SmallConfig() {
  StructureEncoderConfig config;
  config.level1_dim = 12;
  config.level2_dim = 6;
  config.level3_dim = 6;
  config.num_heads = 2;
  config.ff_dim = 32;
  config.num_layers = 1;
  config.max_len = 128;
  config.dropout = 0.0f;
  return config;
}

std::unique_ptr<plan::PlanNode> SamplePlan(uint64_t seed, int max_nodes = 20) {
  data::CorpusOptions options;
  options.min_nodes = 4;
  options.max_nodes = max_nodes;
  data::RandomPlanGenerator generator(util::Rng(seed), options);
  return generator.Generate();
}

TEST(TokenIdsTest, SplitsLevels) {
  const auto plan = SamplePlan(1);
  const auto tokens = plan::LinearizeDfsBracket(*plan);
  const TokenIds ids = TokensToIds(tokens);
  EXPECT_EQ(ids.level1.size(), tokens.size());
  EXPECT_EQ(ids.level2.size(), tokens.size());
  EXPECT_EQ(ids.level3.size(), tokens.size());
}

TEST(BagOfTokensTest, NormalizedCounts) {
  const auto plan = SamplePlan(2);
  const auto bag = BagOfTokens(*plan);
  EXPECT_EQ(static_cast<int>(bag.size()), BagOfTokensDim());
  // Each level's counts sum to ~1 (normalized by node count).
  const plan::Taxonomy& tax = plan::Taxonomy::Get();
  double level1_sum = 0;
  for (int i = 0; i < tax.Level1Count(); ++i) level1_sum += bag[i];
  EXPECT_NEAR(level1_sum, 1.0, 1e-9);
}

TEST(TransformerPlanEncoderTest, OutputShape) {
  util::Rng rng(3);
  TransformerPlanEncoder encoder(SmallConfig(), &rng);
  const auto plan = SamplePlan(4);
  const nn::Tensor embedding = encoder.Encode(*plan, nullptr);
  EXPECT_EQ(embedding.rows(), 1);
  EXPECT_EQ(embedding.cols(), SmallConfig().ModelDim());
}

TEST(TransformerPlanEncoderTest, ProjectionChangesOutputDim) {
  StructureEncoderConfig config = SmallConfig();
  config.output_dim = 10;
  util::Rng rng(4);
  TransformerPlanEncoder encoder(config, &rng);
  EXPECT_EQ(encoder.output_dim(), 10);
  const auto plan = SamplePlan(5);
  EXPECT_EQ(encoder.Encode(*plan, nullptr).cols(), 10);
}

TEST(TransformerPlanEncoderTest, DeterministicInEval) {
  util::Rng rng(5);
  TransformerPlanEncoder encoder(SmallConfig(), &rng);
  const auto plan = SamplePlan(6);
  const nn::Tensor a = encoder.Encode(*plan, nullptr);
  const nn::Tensor b = encoder.Encode(*plan, nullptr);
  for (int c = 0; c < a.cols(); ++c) EXPECT_FLOAT_EQ(a.at(0, c), b.at(0, c));
}

TEST(TransformerPlanEncoderTest, DifferentPlansDifferentEmbeddings) {
  util::Rng rng(6);
  TransformerPlanEncoder encoder(SmallConfig(), &rng);
  const auto pa = SamplePlan(7);
  const auto pb = SamplePlan(8);
  const nn::Tensor a = encoder.Encode(*pa, nullptr);
  const nn::Tensor b = encoder.Encode(*pb, nullptr);
  double diff = 0;
  for (int c = 0; c < a.cols(); ++c) diff += std::abs(a.at(0, c) - b.at(0, c));
  EXPECT_GT(diff, 1e-4);
}

TEST(LstmPlanEncoderTest, OutputShape) {
  util::Rng rng(9);
  LstmPlanEncoder encoder(SmallConfig(), &rng);
  const auto plan = SamplePlan(10);
  const nn::Tensor embedding = encoder.Encode(*plan, nullptr);
  EXPECT_EQ(embedding.rows(), 1);
  EXPECT_EQ(embedding.cols(), SmallConfig().ModelDim());
}

TEST(FnnPlanEncoderTest, OutputShape) {
  util::Rng rng(11);
  FnnPlanEncoder encoder(16, 8, &rng);
  const auto plan = SamplePlan(12);
  EXPECT_EQ(encoder.Encode(*plan, nullptr).cols(), 8);
}

TEST(SparseAutoencoderTest, PretrainingReducesReconstruction) {
  util::Rng rng(13);
  SparseAutoencoder autoencoder(12, &rng);
  std::vector<std::unique_ptr<plan::PlanNode>> owned;
  std::vector<const plan::PlanNode*> plans;
  for (int i = 0; i < 20; ++i) {
    owned.push_back(SamplePlan(100 + i));
    plans.push_back(owned.back().get());
  }
  double before = 0;
  for (const auto* p : plans) {
    before += autoencoder.ReconstructionLoss(*p).value()[0];
  }
  ASSERT_TRUE(
      PretrainSparseAutoencoder(&autoencoder, plans, 40, 5e-3f, 1).ok());
  double after = 0;
  for (const auto* p : plans) {
    after += autoencoder.ReconstructionLoss(*p).value()[0];
  }
  EXPECT_LT(after, before * 0.5);
}

TEST(PpsrTest, TrainingReducesLossAndBeatsMeanPredictor) {
  data::PairDatasetOptions options;
  options.num_pairs = 66;
  options.corpus.min_nodes = 4;
  options.corpus.max_nodes = 16;
  const data::PlanPairDataset dataset = BuildCorpusPairDataset(options);

  util::Rng rng(14);
  PpsrModel model(std::make_unique<TransformerPlanEncoder>(SmallConfig(), &rng),
                  &rng);
  const double untrained_mae = EvaluatePpsrMae(model, dataset.train);
  PpsrTrainOptions train_options;
  train_options.epochs = 6;
  TrainPpsr(&model, dataset.train, train_options);
  const double trained_mae = EvaluatePpsrMae(model, dataset.train);
  EXPECT_LT(trained_mae, untrained_mae);

  // Beats always-predicting-the-mean on train data.
  double mean = 0;
  for (const auto& pair : dataset.train) mean += pair.smatch;
  mean /= dataset.train.size();
  double mean_mae = 0;
  for (const auto& pair : dataset.train) mean_mae += std::abs(pair.smatch - mean);
  mean_mae /= dataset.train.size();
  EXPECT_LT(trained_mae, mean_mae);
}

TEST(PpsrTest, FrozenEncoderTrainsOnlyHead) {
  util::Rng rng(15);
  PpsrModel model(std::make_unique<FnnPlanEncoder>(16, 8, &rng), &rng);
  const auto before = model.encoder()->NamedParameters();
  std::vector<std::vector<float>> encoder_values;
  for (const auto& [name, tensor] : before) encoder_values.push_back(tensor.value());

  data::PairDatasetOptions options;
  options.num_pairs = 22;
  options.corpus.max_nodes = 12;
  const data::PlanPairDataset dataset = BuildCorpusPairDataset(options);
  PpsrTrainOptions train_options;
  train_options.epochs = 2;
  train_options.freeze_encoder = true;
  TrainPpsr(&model, dataset.train, train_options);

  const auto after = model.encoder()->NamedParameters();
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].second.value(), encoder_values[i]) << "param " << i;
  }
}

TEST(PpsrTest, PredictionInUnitInterval) {
  util::Rng rng(16);
  PpsrModel model(std::make_unique<TransformerPlanEncoder>(SmallConfig(), &rng),
                  &rng);
  const auto pa = SamplePlan(17);
  const auto pb = SamplePlan(18);
  const float pred = model.PredictSimilarity(*pa, *pb, nullptr).value()[0];
  EXPECT_GT(pred, 0.0f);
  EXPECT_LT(pred, 1.0f);
}

// --- Performance encoder ---

data::OperatorDataset MakeScanDataset() {
  const simdb::TpchWorkload tpch(0.05);
  config::LhsSampler sampler((util::Rng(19)));
  const auto configs = sampler.Sample(6);
  simdb::RunOptions run_options;
  run_options.instances_per_template = 2;
  const auto executed =
      simdb::RunWorkloadTemplates(tpch, {0, 2, 3, 5}, configs, run_options);
  auto samples = data::ExtractOperatorSamples(executed, tpch.GetCatalog(),
                                              plan::OperatorGroup::kScan);
  return data::SplitOperatorSamples(std::move(samples), 20);
}

PerfEncoderConfig SmallPerfConfig() {
  PerfEncoderConfig config;
  config.node_dim = data::kNodeFeatureDim;
  config.meta_dim = catalog::Catalog::kMetaFeatureDim;
  config.db_dim = config::DbConfig::FeatureDim();
  config.column_hidden = 16;
  config.embed_dim = 16;
  return config;
}

TEST(PerformanceEncoderTest, EmbeddingShape) {
  util::Rng rng(21);
  PerformanceEncoder model(SmallPerfConfig(), &rng);
  const data::OperatorDataset dataset = MakeScanDataset();
  ASSERT_GE(dataset.train.size(), 4u);
  const encoder::PerfBatch batch =
      MakePerfBatch(dataset.train, {0, 1, 2, 3});
  const nn::Tensor embedding = model.Embed(batch.node, batch.meta, batch.db);
  EXPECT_EQ(embedding.rows(), 4);
  EXPECT_EQ(embedding.cols(), 16);
  EXPECT_EQ(model.PredictLabels(embedding).cols(), 3);
}

TEST(PerformanceEncoderTest, TrainingReducesMae) {
  util::Rng rng(22);
  PerformanceEncoder model(SmallPerfConfig(), &rng);
  const data::OperatorDataset dataset = MakeScanDataset();
  const double before = EvaluatePerfMaeMs(model, dataset.train);
  PerfTrainOptions options;
  options.epochs = 15;
  const auto history = TrainPerformanceEncoder(&model, dataset, options);
  EXPECT_EQ(static_cast<int>(history.size()), 15);
  EXPECT_LT(history.back().train_mae_ms, before);
  // Convergence: last epoch no worse than 4x the first epoch (noisy data).
  EXPECT_LT(history.back().train_mae_ms, history.front().train_mae_ms * 4);
}

TEST(PerformanceEncoderTest, EarlyStoppingHonoursPatience) {
  util::Rng rng(23);
  PerformanceEncoder model(SmallPerfConfig(), &rng);
  const data::OperatorDataset dataset = MakeScanDataset();
  PerfTrainOptions options;
  options.epochs = 50;
  options.patience_epochs = 3;
  const auto history = TrainPerformanceEncoder(&model, dataset, options);
  EXPECT_LE(static_cast<int>(history.size()), 50);
}

TEST(PerformanceEncoderTest, SingleColumnVariantTrains) {
  util::Rng rng(24);
  SingleColumnPerformanceEncoder model(SmallPerfConfig(), &rng);
  const data::OperatorDataset dataset = MakeScanDataset();
  PerfTrainOptions options;
  options.epochs = 5;
  const auto history = TrainPerformanceEncoder(&model, dataset, options);
  EXPECT_FALSE(history.empty());
  EXPECT_GT(history.back().train_mae_ms, 0);
}

TEST(PerformanceEncoderTest, PretrainedWeightsTransfer) {
  util::Rng rng(25);
  PerformanceEncoder pretrained(SmallPerfConfig(), &rng);
  const data::OperatorDataset dataset = MakeScanDataset();
  PerfTrainOptions options;
  options.epochs = 8;
  TrainPerformanceEncoder(&pretrained, dataset, options);

  util::Rng rng2(26);
  PerformanceEncoder finetune(SmallPerfConfig(), &rng2);
  ASSERT_TRUE(nn::CopyParameters(pretrained, &finetune));
  EXPECT_NEAR(EvaluatePerfMaeMs(pretrained, dataset.test),
              EvaluatePerfMaeMs(finetune, dataset.test), 1e-6);
}

TEST(PerformanceEncoderTest, SerializationRoundTrip) {
  util::Rng rng(27);
  PerformanceEncoder source(SmallPerfConfig(), &rng);
  util::Rng rng2(28);
  PerformanceEncoder dest(SmallPerfConfig(), &rng2);
  std::string buffer;
  nn::SaveModule(source, &buffer);
  ASSERT_TRUE(nn::LoadModuleStatus(&dest, buffer).ok());
  const data::OperatorDataset dataset = MakeScanDataset();
  EXPECT_NEAR(EvaluatePerfMaeMs(source, dataset.test),
              EvaluatePerfMaeMs(dest, dataset.test), 1e-6);
}

}  // namespace
}  // namespace qpe::encoder
