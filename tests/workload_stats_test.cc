// Statistical/structural properties of the workload generators and a few
// remaining edge cases across modules.

#include <map>
#include <set>

#include "gtest/gtest.h"
#include "nn/tensor.h"
#include "plan/linearize.h"
#include "simdb/workloads.h"
#include "smatch/smatch.h"

namespace qpe {
namespace {

TEST(JobWorkloadStatsTest, ClusterSizesMatchJob) {
  // 113 templates in 33 clusters: 14 clusters of 4 variants, 19 of 3 —
  // summing to 113 like the real benchmark.
  const simdb::JobWorkload job;
  std::map<int, int> sizes;
  for (int t = 0; t < job.NumTemplates(); ++t) ++sizes[job.ClusterOf(t)];
  int fours = 0, threes = 0;
  for (const auto& [cluster, size] : sizes) {
    if (size == 4) ++fours;
    else if (size == 3) ++threes;
    else FAIL() << "cluster " << cluster << " has size " << size;
  }
  EXPECT_EQ(fours, 14);
  EXPECT_EQ(threes, 19);
}

TEST(JobWorkloadStatsTest, VariantNamesFollowJobConvention) {
  const simdb::JobWorkload job;
  EXPECT_EQ(job.TemplateName(0), "1a");
  EXPECT_EQ(job.TemplateName(1), "1b");
  EXPECT_EQ(job.TemplateName(112).back(), 'c');  // last cluster has 3
}

TEST(JobWorkloadStatsTest, EveryTemplateJoinsTitle) {
  const simdb::JobWorkload job;
  for (int t = 0; t < job.NumTemplates(); ++t) {
    const simdb::QuerySpec& spec = job.Template(t);
    bool has_title = false;
    for (const auto& table : spec.tables) has_title |= table == "title";
    EXPECT_TRUE(has_title) << spec.template_id;
    // JOB queries are SELECT MIN(...): plain aggregate, no grouping.
    EXPECT_TRUE(spec.has_aggregate);
    EXPECT_EQ(spec.num_group_keys, 0);
  }
}

TEST(TpcdsWorkloadStatsTest, TemplatesAreDeterministic) {
  const simdb::TpcdsWorkload a(0.1), b(0.1);
  for (int t = 0; t < a.NumTemplates(); ++t) {
    EXPECT_EQ(a.Template(t).tables, b.Template(t).tables);
    ASSERT_EQ(a.Template(t).filters.size(), b.Template(t).filters.size());
    for (size_t f = 0; f < a.Template(t).filters.size(); ++f) {
      EXPECT_DOUBLE_EQ(a.Template(t).filters[f].selectivity,
                       b.Template(t).filters[f].selectivity);
    }
  }
}

TEST(TpcdsWorkloadStatsTest, EveryTemplateHasAFactTable) {
  const simdb::TpcdsWorkload tpcds(0.1);
  const std::set<std::string> facts = {"store_sales", "catalog_sales",
                                       "web_sales", "store_returns",
                                       "inventory"};
  for (int t = 0; t < tpcds.NumTemplates(); ++t) {
    EXPECT_TRUE(facts.count(tpcds.Template(t).tables[0]))
        << tpcds.TemplateName(t);
    // Joins at least two dimensions.
    EXPECT_GE(tpcds.Template(t).joins.size(), 2u);
  }
}

TEST(SpatialWorkloadStatsTest, JackpineAndOsmPrefixes) {
  const simdb::SpatialWorkload spatial;
  int jackpine = 0, osm = 0;
  for (int t = 0; t < spatial.NumTemplates(); ++t) {
    if (spatial.TemplateName(t).rfind("OSM", 0) == 0) ++osm;
    else ++jackpine;
  }
  EXPECT_EQ(jackpine, 12);
  EXPECT_EQ(osm, 8);
}

TEST(SpatialWorkloadStatsTest, SpatialPredicatesMarked) {
  const simdb::SpatialWorkload spatial;
  int spatial_joins = 0;
  for (int t = 0; t < spatial.NumTemplates(); ++t) {
    for (const auto& join : spatial.Template(t).joins) {
      EXPECT_TRUE(join.spatial) << spatial.TemplateName(t);
      ++spatial_joins;
    }
  }
  EXPECT_GT(spatial_joins, 8);
}

TEST(TpchWorkloadStatsTest, JoinCountsSpanSimpleToComplex) {
  const simdb::TpchWorkload tpch(0.1);
  size_t min_joins = 99, max_joins = 0;
  for (int t = 0; t < tpch.NumTemplates(); ++t) {
    min_joins = std::min(min_joins, tpch.Template(t).joins.size());
    max_joins = std::max(max_joins, tpch.Template(t).joins.size());
  }
  EXPECT_EQ(min_joins, 0u);   // Q1/Q6 are single-table
  EXPECT_GE(max_joins, 5u);   // Q8 joins 7 tables
}

// --- Remaining edge cases ---

TEST(LinearizeEdgeTest, SingleNodePlan) {
  plan::PlanNode leaf(plan::OperatorType::Parse("Scan-Seq"));
  const auto tokens = plan::LinearizeDfsBracket(leaf);
  // CLS, node (no brackets for a leaf root), SEP.
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].ToString(), "Scan-Seq");
}

TEST(SmatchEdgeTest, SingleNodesExact) {
  plan::PlanNode a(plan::OperatorType::Parse("Scan-Seq"));
  plan::PlanNode b(plan::OperatorType::Parse("Scan-Seq"));
  EXPECT_DOUBLE_EQ(smatch::Score(a, b).f1, 1.0);
  EXPECT_DOUBLE_EQ(smatch::ScoreExact(a, b).f1, 1.0);
}

TEST(OptimizerEdgeTest, ZeroGradAfterStepMatters) {
  // Without ZeroGrad, gradients accumulate and double the step.
  nn::Tensor w1 = nn::Tensor::Scalar(1.0f, true);
  nn::Tensor w2 = nn::Tensor::Scalar(1.0f, true);
  for (int i = 0; i < 2; ++i) {
    nn::Square(w1).Backward();  // accumulates: no ZeroGrad
    w1.value()[0] -= 0.1f * w1.grad()[0];
  }
  for (int i = 0; i < 2; ++i) {
    w2.ZeroGrad();
    nn::Square(w2).Backward();
    w2.value()[0] -= 0.1f * w2.grad()[0];
  }
  EXPECT_NE(w1.value()[0], w2.value()[0]);
}

TEST(TensorEdgeTest, CrossEntropySingleClassIsZero) {
  const nn::Tensor logits = nn::Tensor::FromVector(2, 1, {3.0f, -1.0f}, true);
  const nn::Tensor loss = nn::CrossEntropy(logits, {0, 0});
  EXPECT_NEAR(loss.value()[0], 0.0f, 1e-6f);
}

TEST(TensorEdgeTest, MeanOfSingleElement) {
  const nn::Tensor t = nn::Tensor::Scalar(7.0f);
  EXPECT_FLOAT_EQ(nn::Mean(t).value()[0], 7.0f);
}

}  // namespace
}  // namespace qpe
