// Tests for the EXPLAIN renderer, the EncoderSuite bundle, and workload
// similarity utilities.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "config/db_config.h"
#include "data/plan_corpus.h"
#include "encoder/encoder_suite.h"
#include "gtest/gtest.h"
#include "plan/explain.h"
#include "simdb/executor.h"
#include "simdb/planner.h"
#include "simdb/workloads.h"
#include "tasks/workload_similarity.h"

namespace qpe {
namespace {

plan::Plan PlannedTpchQuery(int template_index, bool execute) {
  static const simdb::TpchWorkload* const kTpch =
      new simdb::TpchWorkload(0.05);
  config::DbConfig db_config;
  util::Rng rng(1);
  const simdb::QuerySpec spec = kTpch->Instantiate(template_index, &rng);
  simdb::Planner planner(&kTpch->GetCatalog(), &db_config);
  plan::Plan planned = planner.PlanQuery(spec);
  if (execute) {
    simdb::ExecutorSim executor(&kTpch->GetCatalog(), &db_config);
    util::Rng noise(2);
    executor.Execute(&planned, spec.cardinality_seed, &noise);
  }
  return planned;
}

TEST(ExplainTest, RendersTreeWithCostsAndActuals) {
  const plan::Plan planned = PlannedTpchQuery(2, /*execute=*/true);
  const std::string text = plan::Explain(*planned.root);
  EXPECT_NE(text.find("cost="), std::string::npos);
  EXPECT_NE(text.find("actual time="), std::string::npos);
  EXPECT_NE(text.find("->"), std::string::npos);
  EXPECT_NE(text.find("Buffers: shared hit="), std::string::npos);
  // Scan nodes name their relation.
  EXPECT_NE(text.find(" on "), std::string::npos);
}

TEST(ExplainTest, PlainExplainOmitsActuals) {
  const plan::Plan planned = PlannedTpchQuery(2, /*execute=*/false);
  plan::ExplainOptions options;
  options.analyze = false;
  const std::string text = plan::Explain(*planned.root, options);
  EXPECT_NE(text.find("cost="), std::string::npos);
  EXPECT_EQ(text.find("actual time="), std::string::npos);
  EXPECT_EQ(text.find("Buffers:"), std::string::npos);
}

TEST(ExplainTest, DisplayNamesReverseTaxonomy) {
  plan::PlanNode bitmap(plan::OperatorType::Parse("Scan-Heap-Bitmap"));
  EXPECT_NE(plan::Explain(bitmap).find("Bitmap Heap Scan"),
            std::string::npos);
  plan::PlanNode join(plan::OperatorType::Parse("Join-Hash"));
  EXPECT_NE(plan::Explain(join).find("Hash Join"), std::string::npos);
  plan::PlanNode nested(plan::OperatorType::Parse("Loop-Nested"));
  EXPECT_NE(plan::Explain(nested).find("Nested Loop"), std::string::npos);
}

TEST(ExplainTest, IndentationGrowsWithDepth) {
  const plan::Plan planned = PlannedTpchQuery(4, /*execute=*/false);  // Q5
  const std::string text = plan::Explain(*planned.root);
  // The deepest scan line is indented further than the first child line.
  const size_t first_arrow = text.find("->");
  const size_t last_arrow = text.rfind("->");
  ASSERT_NE(first_arrow, std::string::npos);
  size_t first_col = first_arrow - text.rfind('\n', first_arrow) - 1;
  size_t last_col = last_arrow - text.rfind('\n', last_arrow) - 1;
  EXPECT_GT(last_col, first_col);
}

TEST(EncoderSuiteTest, SaveLoadRoundTrip) {
  const std::string dir =
      std::filesystem::temp_directory_path() / "qpe_suite_test";
  std::filesystem::create_directories(dir);

  encoder::EncoderSuite::Config config;
  config.seed = 5;
  encoder::EncoderSuite source(config);
  ASSERT_TRUE(source.SaveToDirectory(dir).ok());

  encoder::EncoderSuite::Config other = config;
  other.seed = 99;  // different init, same shapes
  encoder::EncoderSuite loaded(other);
  ASSERT_TRUE(loaded.LoadFromDirectory(dir).ok());

  data::RandomPlanGenerator generator((util::Rng(3)));
  const auto plan = generator.Generate();
  const nn::Tensor a = source.structure()->Encode(*plan, nullptr);
  const nn::Tensor b = loaded.structure()->Encode(*plan, nullptr);
  for (int c = 0; c < a.cols(); ++c) EXPECT_FLOAT_EQ(a.at(0, c), b.at(0, c));

  std::filesystem::remove_all(dir);
}

// Every parameter of the suite, as raw bytes in file order.
std::string SuiteBytes(const encoder::EncoderSuite& suite) {
  std::string bytes;
  std::vector<const nn::Module*> modules = {suite.structure()};
  for (int g = 0; g < 4; ++g) {
    modules.push_back(suite.performance(static_cast<plan::OperatorGroup>(g)));
  }
  for (const nn::Module* module : modules) {
    for (const auto& [name, tensor] : module->NamedParameters()) {
      bytes.append(reinterpret_cast<const char*>(tensor.value().data()),
                   tensor.value().size() * sizeof(float));
    }
  }
  return bytes;
}

// A corrupt last file fails the whole load, and the four encoders whose
// files parsed are not overwritten either.
TEST(EncoderSuiteTest, CorruptLastFileLeavesEverySuiteParameterUntouched) {
  const std::string dir =
      std::filesystem::temp_directory_path() / "qpe_suite_corrupt_test";
  std::filesystem::create_directories(dir);
  encoder::EncoderSuite::Config config;
  config.seed = 5;
  ASSERT_TRUE(encoder::EncoderSuite(config).SaveToDirectory(dir).ok());
  const std::string last = dir + "/perf_aggregate.qpe";
  std::filesystem::resize_file(last, std::filesystem::file_size(last) - 5);

  encoder::EncoderSuite::Config other = config;
  other.seed = 99;
  encoder::EncoderSuite loaded(other);
  const std::string before = SuiteBytes(loaded);
  const util::Status s = loaded.LoadFromDirectory(dir);
  EXPECT_EQ(s.code(), util::StatusCode::kDataLoss) << s.ToString();
  EXPECT_NE(s.message().find("perf_aggregate.qpe"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("truncated reading data"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(SuiteBytes(loaded), before);
  std::filesystem::remove_all(dir);
}

TEST(EncoderSuiteTest, LoadFromMissingDirectoryFails) {
  encoder::EncoderSuite suite;
  EXPECT_FALSE(suite.LoadFromDirectory("/nonexistent_qpe_dir").ok());
}

TEST(EncoderSuiteTest, FeaturizerConfigWiresAllEncoders) {
  const simdb::TpchWorkload tpch(0.05);
  encoder::EncoderSuite suite;
  const auto config = suite.FeaturizerConfig(&tpch.GetCatalog());
  EXPECT_EQ(config.structure, suite.structure());
  for (int g = 0; g < 4; ++g) {
    EXPECT_NE(config.performance[g], nullptr);
  }
  tasks::EmbeddingFeaturizer featurizer(config);
  EXPECT_GT(featurizer.FeatureDim(), 48);
}

TEST(WorkloadSimilarityTest, IdenticalWorkloadsCosineOne) {
  encoder::EncoderSuite suite;
  data::RandomPlanGenerator generator((util::Rng(7)));
  const auto p1 = generator.Generate();
  const auto p2 = generator.Generate();
  const std::vector<tasks::WeightedPlan> workload = {{p1.get(), 0.7},
                                                     {p2.get(), 0.3}};
  const auto a = tasks::WorkloadEmbedding(*suite.structure(), workload);
  const auto b = tasks::WorkloadEmbedding(*suite.structure(), workload);
  EXPECT_NEAR(tasks::CosineSimilarity(a, b), 1.0, 1e-6);
}

TEST(WorkloadSimilarityTest, WeightsMatter) {
  encoder::EncoderSuite suite;
  data::RandomPlanGenerator generator((util::Rng(8)));
  const auto p1 = generator.Generate();
  const auto p2 = generator.Generate();
  const auto heavy_p1 = tasks::WorkloadEmbedding(
      *suite.structure(), {{p1.get(), 0.9}, {p2.get(), 0.1}});
  const auto heavy_p2 = tasks::WorkloadEmbedding(
      *suite.structure(), {{p1.get(), 0.1}, {p2.get(), 0.9}});
  const auto only_p1 =
      tasks::WorkloadEmbedding(*suite.structure(), {{p1.get(), 1.0}});
  EXPECT_LT(tasks::EuclideanDistance(heavy_p1, only_p1),
            tasks::EuclideanDistance(heavy_p2, only_p1));
}

TEST(WorkloadSimilarityTest, EmptyWorkloadIsZero) {
  encoder::EncoderSuite suite;
  const auto embedding = tasks::WorkloadEmbedding(*suite.structure(), {});
  for (double v : embedding) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(WorkloadSimilarityTest, KMeansSeparatesObviousClusters) {
  // Two tight blobs in 2-D.
  std::vector<std::vector<double>> rows;
  util::Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    rows.push_back({rng.Normal(0, 0.1), rng.Normal(0, 0.1)});
  }
  for (int i = 0; i < 20; ++i) {
    rows.push_back({rng.Normal(10, 0.1), rng.Normal(10, 0.1)});
  }
  const auto assignment = tasks::KMeansCluster(rows, 2, 20, 42);
  ASSERT_EQ(assignment.size(), 40u);
  for (int i = 1; i < 20; ++i) EXPECT_EQ(assignment[i], assignment[0]);
  for (int i = 21; i < 40; ++i) EXPECT_EQ(assignment[i], assignment[20]);
  EXPECT_NE(assignment[0], assignment[20]);
}

TEST(WorkloadSimilarityTest, KMeansDeterministic) {
  std::vector<std::vector<double>> rows;
  util::Rng rng(10);
  for (int i = 0; i < 30; ++i) {
    rows.push_back({rng.Uniform(), rng.Uniform(), rng.Uniform()});
  }
  EXPECT_EQ(tasks::KMeansCluster(rows, 3, 15, 7),
            tasks::KMeansCluster(rows, 3, 15, 7));
}

TEST(WorkloadSimilarityTest, CosineEdgeCases) {
  EXPECT_DOUBLE_EQ(tasks::CosineSimilarity({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(tasks::CosineSimilarity({0, 0}, {1, 1}), 0.0);
  EXPECT_NEAR(tasks::CosineSimilarity({1, 2}, {2, 4}), 1.0, 1e-12);
  EXPECT_NEAR(tasks::CosineSimilarity({1, 0}, {-1, 0}), -1.0, 1e-12);
}

}  // namespace
}  // namespace qpe
