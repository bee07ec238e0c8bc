// Foreign-plan ingestion: EXPLAIN-text parsing, graceful-degradation
// sanitization, strict-mode rejection, and the round-trip / fuzzing
// guarantees (any PlanNode in, finite embedding out).

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "config/db_config.h"
#include "data/features.h"
#include "data/plan_corpus.h"
#include "encoder/structure_encoder.h"
#include "gtest/gtest.h"
#include "plan/explain.h"
#include "plan/explain_parser.h"
#include "plan/sanitize.h"
#include "simdb/executor.h"
#include "simdb/planner.h"
#include "simdb/workloads.h"
#include "smatch/smatch.h"
#include "util/fuzz.h"

namespace qpe {
namespace {

using plan::IngestionPolicy;
using plan::OperatorType;
using plan::ParseExplain;
using plan::ParseExplainOptions;
using plan::PlanNode;

ParseExplainOptions Strict() {
  ParseExplainOptions options;
  options.policy = IngestionPolicy::kStrict;
  return options;
}

// Small-but-real encoder configs keep the fuzz loops fast.
encoder::StructureEncoderConfig TinyConfig() {
  encoder::StructureEncoderConfig config;
  config.level1_dim = 8;
  config.level2_dim = 4;
  config.level3_dim = 4;
  config.num_heads = 2;
  config.ff_dim = 16;
  config.num_layers = 1;
  config.max_len = 64;
  config.dropout = 0.0f;
  return config;
}

bool AllFinite(const nn::Tensor& t) {
  for (float v : t.value()) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

// Runs every structure encoder over the plan and checks the embeddings are
// finite — the core "ANY PlanNode yields a finite embedding" guarantee.
void ExpectAllEncodersFinite(const PlanNode& root) {
  util::Rng rng(11);
  const encoder::StructureEncoderConfig config = TinyConfig();
  const encoder::TransformerPlanEncoder transformer(config, &rng);
  const encoder::LstmPlanEncoder lstm(config, &rng);
  const encoder::FnnPlanEncoder fnn(16, 8, &rng);
  const encoder::SparseAutoencoder autoencoder(8, &rng);
  EXPECT_TRUE(AllFinite(transformer.Encode(root, nullptr)));
  EXPECT_TRUE(AllFinite(lstm.Encode(root, nullptr)));
  EXPECT_TRUE(AllFinite(fnn.Encode(root, nullptr)));
  EXPECT_TRUE(AllFinite(autoencoder.Encode(root, nullptr)));
  for (double v : encoder::BagOfTokens(root)) EXPECT_TRUE(std::isfinite(v));
}

plan::Plan PlanWorkloadQuery(const simdb::BenchmarkWorkload& workload,
                             int template_index, bool execute) {
  config::DbConfig db_config;
  util::Rng rng(17 + template_index);
  const simdb::QuerySpec spec = workload.Instantiate(template_index, &rng);
  simdb::Planner planner(&workload.GetCatalog(), &db_config);
  plan::Plan planned = planner.PlanQuery(spec);
  if (execute) {
    simdb::ExecutorSim executor(&workload.GetCatalog(), &db_config);
    util::Rng noise(23 + template_index);
    executor.Execute(&planned, spec.cardinality_seed, &noise);
  }
  return planned;
}

// --- Parser basics ---------------------------------------------------------

TEST(ExplainParserTest, ParsesHandWrittenSnippet) {
  const std::string text =
      "Sort  (cost=98.20..98.20 rows=13 width=64) (actual time=12.400..12.500 rows=11 loops=1)\n"
      "  Sort Method: quicksort  Memory: 25kB\n"
      "  ->  Hash Join  (cost=0.40..91.10 rows=13 width=64) (actual time=1.000..11.000 rows=11 loops=1)\n"
      "        ->  Seq Scan on lineitem  (cost=0.00..80.00 rows=600 width=32) (actual time=0.010..8.000 rows=600 loops=1)\n"
      "        ->  Index Scan on orders  (cost=0.20..9.00 rows=10 width=32) (actual time=0.020..1.500 rows=10 loops=1)\n"
      "              Index Cond: (set)\n";
  auto parsed = ParseExplain(text, Strict());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const PlanNode& root = *parsed->root;
  EXPECT_EQ(root.type(), OperatorType::Parse("Sort"));
  EXPECT_EQ(root.props().sort_method, plan::SortMethod::kQuicksort);
  EXPECT_DOUBLE_EQ(root.props().peak_memory_kb, 25);
  EXPECT_DOUBLE_EQ(root.props().total_cost, 98.20);
  EXPECT_DOUBLE_EQ(root.props().actual_total_time_ms, 12.5);
  ASSERT_EQ(root.children().size(), 1u);
  const PlanNode& join = *root.children()[0];
  EXPECT_EQ(join.type(), OperatorType::Parse("Join-Hash"));
  ASSERT_EQ(join.children().size(), 2u);
  EXPECT_EQ(join.children()[0]->relations()[0], "lineitem");
  EXPECT_EQ(join.children()[1]->type(), OperatorType::Parse("Scan-Index"));
  EXPECT_TRUE(join.children()[1]->props().has_index_condition);
  EXPECT_EQ(parsed->stats.TotalDefects(), 0);
}

TEST(ExplainParserTest, EmptyInputIsAnErrorInBothModes) {
  EXPECT_FALSE(ParseExplain("").ok());
  EXPECT_FALSE(ParseExplain("", Strict()).ok());
  EXPECT_FALSE(ParseExplain("\n\n  \n").ok());
}

TEST(ExplainParserTest, StrictRejectsMalformedCostWithLineAndColumn) {
  const std::string text =
      "Sort  (cost=98.20..98.20 rows=13 width=64)\n"
      "  ->  Hash Join  (cost=0.40..banana rows=13 width=64)\n";
  auto parsed = ParseExplain(text, Strict());
  ASSERT_FALSE(parsed.ok());
  const std::string message = parsed.status().ToString();
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("col"), std::string::npos) << message;
  EXPECT_NE(message.find("cost"), std::string::npos) << message;
}

TEST(ExplainParserTest, StrictRejectsUnknownOperatorNamingTheWord) {
  const std::string text =
      "Quantum Warp Drive  (cost=1.00..2.00 rows=1 width=8)\n";
  auto parsed = ParseExplain(text, Strict());
  ASSERT_FALSE(parsed.ok());
  const std::string message = parsed.status().ToString();
  EXPECT_NE(message.find("line 1"), std::string::npos) << message;
  EXPECT_NE(message.find("Drive"), std::string::npos) << message;
}

TEST(ExplainParserTest, LenientMapsUnknownOperatorToUnknownToken) {
  const std::string text =
      "Quantum Warp Drive  (cost=1.00..2.00 rows=1 width=8)\n";
  auto parsed = ParseExplain(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const plan::Taxonomy& tax = plan::Taxonomy::Get();
  EXPECT_EQ(parsed->root->type().level1, tax.unknown1());
  EXPECT_GE(parsed->stats.unknown_operators, 1);
  EXPECT_FALSE(parsed->warnings.empty());
  ExpectAllEncodersFinite(*parsed->root);
}

TEST(ExplainParserTest, MissingActualsDegradeToEstimates) {
  // Plain EXPLAIN (no ANALYZE): uniform absence is a format, not a defect.
  const std::string text =
      "Hash Join  (cost=0.40..91.10 rows=130 width=64)\n"
      "  ->  Seq Scan on lineitem  (cost=0.00..80.00 rows=600 width=32)\n"
      "  ->  Seq Scan on orders  (cost=0.00..9.00 rows=10 width=32)\n";
  auto parsed = ParseExplain(text, Strict());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->root->props().actual_rows, 130);
  EXPECT_DOUBLE_EQ(parsed->root->props().actual_loops, 1);
  EXPECT_EQ(parsed->stats.missing_actuals, 0);
}

TEST(ExplainParserTest, StrictRejectsMixedAnalyzeOutput) {
  const std::string text =
      "Hash Join  (cost=0.40..91.10 rows=130 width=64) (actual time=1.000..2.000 rows=130 loops=1)\n"
      "  ->  Seq Scan on lineitem  (cost=0.00..80.00 rows=600 width=32)\n";
  auto strict = ParseExplain(text, Strict());
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().ToString().find("line 2"), std::string::npos);
  // Lenient counts the degradation instead.
  auto lenient = ParseExplain(text);
  ASSERT_TRUE(lenient.ok());
  EXPECT_EQ(lenient->stats.missing_actuals, 1);
}

TEST(ExplainParserTest, LenientSurvivesRealPostgresOutput) {
  // Genuine psql formatting: header, alias after the relation, predicate
  // text in Index Cond / Filter, Sort Key, Heap Blocks, buffers detail.
  const std::string text =
      "                         QUERY PLAN\n"
      "-------------------------------------------------------------\n"
      " Sort  (cost=230.01..230.51 rows=200 width=44) (actual time=3.400..3.420 rows=180 loops=1)\n"
      "   Sort Key: t.category, (count(*)) DESC\n"
      "   Sort Method: quicksort  Memory: 40kB\n"
      "   Buffers: shared hit=120 read=7\n"
      "   ->  HashAggregate  (cost=210.00..212.00 rows=200 width=44) (actual time=3.000..3.100 rows=180 loops=1)\n"
      "         Group Key: t.category\n"
      "         ->  Bitmap Heap Scan on items t  (cost=12.00..180.00 rows=4000 width=12) (actual time=0.200..1.900 rows=3900 loops=1)\n"
      "               Recheck Cond: (price > 10)\n"
      "               Filter: (in_stock AND (price > 10))\n"
      "               Rows Removed by Filter: 55\n"
      "               Heap Blocks: exact=90\n"
      "               ->  Bitmap Index Scan on items_price_idx  (cost=0.00..11.00 rows=4100 width=0) (actual time=0.150..0.150 rows=4100 loops=1)\n"
      "                     Index Cond: (price > 10)\n"
      "(15 rows)\n";
  auto parsed = ParseExplain(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->stats.nodes, 4);
  const PlanNode& root = *parsed->root;
  EXPECT_EQ(root.type(), OperatorType::Parse("Sort"));
  EXPECT_DOUBLE_EQ(root.props().num_sort_keys, 2);
  EXPECT_DOUBLE_EQ(root.props().shared_hit_blocks, 120);
  ASSERT_EQ(root.children().size(), 1u);
  const PlanNode& scan = *root.children()[0]->children()[0];
  EXPECT_EQ(scan.type(), OperatorType::Parse("Scan-Heap-Bitmap"));
  EXPECT_EQ(scan.relations()[0], "items");  // alias stripped
  EXPECT_TRUE(scan.props().has_filter);
  EXPECT_TRUE(scan.props().has_recheck_condition);
  EXPECT_DOUBLE_EQ(scan.props().rows_removed_by_filter, 55);
  EXPECT_DOUBLE_EQ(scan.props().heap_blocks, 90);
  // Unknown lines (header, Group Key, row count) were counted, not fatal.
  EXPECT_GT(parsed->stats.unparsed_lines, 0);
  ExpectAllEncodersFinite(root);
}

TEST(ExplainParserTest, SecondRootGraftsLenientlyRejectsStrictly) {
  const std::string text =
      "Sort  (cost=1.00..2.00 rows=1 width=8)\n"
      "Limit  (cost=1.00..2.00 rows=1 width=8)\n";
  auto lenient = ParseExplain(text);
  ASSERT_TRUE(lenient.ok());
  EXPECT_EQ(lenient->stats.orphan_nodes, 1);
  EXPECT_EQ(lenient->root->children().size(), 1u);  // grafted under the root
  EXPECT_FALSE(ParseExplain(text, Strict()).ok());
}

// --- Golden round trip over every simdb workload ---------------------------

void ExpectByteIdenticalRoundTrip(const simdb::BenchmarkWorkload& workload,
                                  const char* name) {
  for (int t = 0; t < workload.NumTemplates(); ++t) {
    const plan::Plan planned = PlanWorkloadQuery(workload, t, /*execute=*/true);
    for (const bool analyze : {true, false}) {
      plan::ExplainOptions options;
      options.analyze = analyze;
      options.buffers = analyze;
      const std::string text = plan::Explain(*planned.root, options);
      auto parsed = ParseExplain(text, Strict());
      ASSERT_TRUE(parsed.ok()) << name << " template " << t << " analyze="
                               << analyze << ": " << parsed.status().ToString()
                               << "\n" << text;
      const std::string again = plan::Explain(*parsed->root, options);
      ASSERT_EQ(text, again) << name << " template " << t;
      const smatch::SmatchScore score = smatch::Score(*planned.root,
                                                      *parsed->root);
      ASSERT_DOUBLE_EQ(score.f1, 1.0) << name << " template " << t;
    }
  }
}

TEST(ExplainRoundTripTest, TpchByteIdentical) {
  ExpectByteIdenticalRoundTrip(simdb::TpchWorkload(0.05), "tpch");
}

TEST(ExplainRoundTripTest, TpcdsByteIdentical) {
  ExpectByteIdenticalRoundTrip(simdb::TpcdsWorkload(0.05, 20), "tpcds");
}

TEST(ExplainRoundTripTest, JobByteIdentical) {
  ExpectByteIdenticalRoundTrip(simdb::JobWorkload(), "job");
}

TEST(ExplainRoundTripTest, SpatialByteIdentical) {
  ExpectByteIdenticalRoundTrip(simdb::SpatialWorkload(), "spatial");
}

// --- Sanitization ----------------------------------------------------------

TEST(SanitizeTest, RepairsHostileValuesAndReportsThem) {
  PlanNode root(OperatorType::Parse("Sort"));
  root.props().plan_rows = std::nan("");
  root.props().actual_rows = -5;
  root.props().peak_memory_kb = 1e300;
  root.props().sort_method = static_cast<plan::SortMethod>(99);
  root.props().actual_loops = std::nan("");
  const plan::IngestionStats stats = plan::SanitizePlan(&root);
  EXPECT_EQ(stats.nonfinite_values, 1);
  EXPECT_EQ(stats.negative_values, 1);
  EXPECT_EQ(stats.out_of_range_values, 1);
  EXPECT_EQ(stats.invalid_enums, 1);
  EXPECT_EQ(stats.missing_actuals, 1);
  EXPECT_DOUBLE_EQ(root.props().plan_rows, 0);
  EXPECT_DOUBLE_EQ(root.props().actual_loops, 1);
  EXPECT_TRUE(plan::ValidatePlan(root).ok());
  EXPECT_NE(stats.ToString().find("non-finite"), std::string::npos);
}

TEST(SanitizeTest, TruncatesDeepAndWideTreesDeterministically) {
  plan::SanitizeLimits limits;
  limits.max_depth = 8;
  limits.max_children = 4;
  limits.max_nodes = 64;
  // A 40-deep chain whose head also has 10 children.
  PlanNode root(OperatorType::Parse("Materialize"));
  PlanNode* tip = &root;
  for (int d = 0; d < 40; ++d) {
    tip = tip->AddChild(OperatorType::Parse("Materialize"));
  }
  for (int c = 0; c < 10; ++c) root.AddChild(OperatorType::Parse("Scan-Seq"));
  const plan::IngestionStats stats = plan::SanitizePlan(&root, limits);
  EXPECT_GT(stats.truncated_depth, 0);
  EXPECT_GT(stats.truncated_children, 0);
  EXPECT_LE(root.Depth(), limits.max_depth);
  EXPECT_LE(root.NumNodes(), limits.max_nodes);
  EXPECT_TRUE(plan::ValidatePlan(root, limits).ok());
  // Same input, same truncation.
  PlanNode root2(OperatorType::Parse("Materialize"));
  tip = &root2;
  for (int d = 0; d < 40; ++d) {
    tip = tip->AddChild(OperatorType::Parse("Materialize"));
  }
  for (int c = 0; c < 10; ++c) root2.AddChild(OperatorType::Parse("Scan-Seq"));
  plan::SanitizePlan(&root2, limits);
  EXPECT_DOUBLE_EQ(smatch::Score(root, root2).f1, 1.0);
}

TEST(SanitizeTest, ValidateNamesTheOffendingNodeAndProperty) {
  PlanNode root(OperatorType::Parse("Sort"));
  PlanNode* child = root.AddChild(OperatorType::Parse("Scan-Seq"));
  child->props().plan_rows = -3;
  const util::Status status = plan::ValidatePlan(root);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("node #1"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("plan_rows"), std::string::npos);
}

// --- Encoder hardening -----------------------------------------------------

TEST(EncoderHardeningTest, ScrambledOperatorIdsEncodeFinite) {
  // Regression for the -1-sentinel era: out-of-vocabulary ids must hit the
  // UNKNOWN row, not read past the embedding tables.
  PlanNode root(OperatorType(250, 251, 252));
  root.AddChild(OperatorType(199, 0, 77));
  ExpectAllEncodersFinite(root);
  const std::vector<OperatorType> tokens = {OperatorType(250, 251, 252)};
  const encoder::TokenIds ids = encoder::TokensToIds(tokens);
  const plan::Taxonomy& tax = plan::Taxonomy::Get();
  EXPECT_EQ(ids.level1[0], tax.unknown1());
  EXPECT_EQ(ids.level2[0], tax.unknown2());
  EXPECT_EQ(ids.level3[0], tax.unknown3());
}

TEST(EncoderHardeningTest, TransformerTruncatesBeyondMaxLen) {
  PlanNode root(OperatorType::Parse("Materialize"));
  PlanNode* tip = &root;
  for (int d = 0; d < 300; ++d) {
    tip = tip->AddChild(OperatorType::Parse("Materialize"));
  }
  util::Rng rng(3);
  const encoder::TransformerPlanEncoder transformer(TinyConfig(), &rng);
  EXPECT_TRUE(AllFinite(transformer.Encode(root, nullptr)));
}

// --- Fuzzing ---------------------------------------------------------------

TEST(IngestionFuzzTest, ByteMutationsNeverCrashAndAcceptedPlansEncodeFinite) {
  const simdb::TpchWorkload tpch(0.05);
  const plan::Plan planned = PlanWorkloadQuery(tpch, 4, /*execute=*/true);
  const std::string seed_text = plan::Explain(*planned.root);
  const int iters = util::FuzzIterationsFromEnv(300);
  util::Rng rng(0xFEEDFACE);
  const encoder::StructureEncoderConfig config = TinyConfig();
  util::Rng model_rng(5);
  const encoder::TransformerPlanEncoder transformer(config, &model_rng);
  int accepted = 0;
  for (int i = 0; i < iters; ++i) {
    const std::string mutated =
        util::MutateBytes(seed_text, &rng, 1 + static_cast<int>(rng.UniformInt(0, 7)));
    // Strict must reject or accept without crashing; no partial trees.
    auto strict = ParseExplain(mutated, Strict());
    if (!strict.ok()) {
      EXPECT_FALSE(strict.status().ToString().empty());
    }
    auto lenient = data::IngestExplainText(mutated);
    if (!lenient.ok()) continue;
    ++accepted;
    ASSERT_TRUE(plan::ValidatePlan(*lenient->plan.root).ok());
    const nn::Tensor embedding = transformer.Encode(*lenient->plan.root, nullptr);
    ASSERT_TRUE(AllFinite(embedding)) << "iteration " << i;
    for (double v : encoder::BagOfTokens(*lenient->plan.root)) {
      ASSERT_TRUE(std::isfinite(v)) << "iteration " << i;
    }
  }
  // The mutator is gentle enough that a healthy share still parses.
  EXPECT_GT(accepted, 0);
}

TEST(IngestionFuzzTest, TreeMutationsAlwaysSanitizeToValidFinitePlans) {
  const int iters = util::FuzzIterationsFromEnv(200);
  util::Rng gen_rng(0xDADA);
  data::CorpusOptions corpus;
  corpus.max_nodes = 40;
  data::RandomPlanGenerator generator(util::Rng(0xBEEF), corpus);
  const encoder::StructureEncoderConfig config = TinyConfig();
  util::Rng model_rng(7);
  const encoder::TransformerPlanEncoder transformer(config, &model_rng);
  const encoder::LstmPlanEncoder lstm(config, &model_rng);
  for (int i = 0; i < iters; ++i) {
    auto root = generator.Generate();
    data::CorruptPlan(root.get(), &gen_rng, 1 + i % 6);
    plan::IngestionStats stats = plan::SanitizePlan(root.get());
    ASSERT_TRUE(plan::ValidatePlan(*root).ok()) << "iteration " << i;
    ASSERT_TRUE(AllFinite(transformer.Encode(*root, nullptr)))
        << "iteration " << i;
    ASSERT_TRUE(AllFinite(lstm.Encode(*root, nullptr))) << "iteration " << i;
    root->Visit([&](const PlanNode& node) {
      for (double v : data::NodeFeatures(node, &stats)) {
        ASSERT_TRUE(std::isfinite(v)) << "iteration " << i;
      }
    });
  }
}

// --- Ingestion entry point -------------------------------------------------

TEST(IngestExplainTest, EndToEndLenientProducesReportAndSafePlan) {
  const std::string text =
      "Hyper Drive  (cost=1.00..2.00 rows=nan width=8)\n"
      "  ->  Seq Scan on stars  (cost=0.00..1.00 rows=-4 width=8)\n";
  auto ingested = data::IngestExplainText(text);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  EXPECT_EQ(ingested->plan.benchmark, "foreign");
  EXPECT_EQ(ingested->stats.nodes, 2);
  EXPECT_GE(ingested->stats.unknown_operators, 1);
  EXPECT_GE(ingested->stats.nonfinite_values, 1);
  EXPECT_GE(ingested->stats.negative_values, 1);
  EXPECT_TRUE(plan::ValidatePlan(*ingested->plan.root).ok());
  EXPECT_FALSE(ingested->warnings.empty());
  auto strict = data::IngestExplainText(text, IngestionPolicy::kStrict);
  EXPECT_FALSE(strict.ok());
}

TEST(IngestExplainTest, MissingFileIsNotFound) {
  auto ingested = data::IngestExplainFile("/nonexistent/qpe_explain.txt");
  ASSERT_FALSE(ingested.ok());
  EXPECT_EQ(ingested.status().code(), util::StatusCode::kNotFound);
}

TEST(WarningLogTest, CapsEntriesAndCountsOverflow) {
  util::WarningLog log(3);
  for (int i = 0; i < 10; ++i) log.Add("warning " + std::to_string(i));
  EXPECT_EQ(log.entries().size(), 3u);
  EXPECT_EQ(log.total(), 10u);
  EXPECT_EQ(log.dropped(), 7u);
  EXPECT_NE(log.ToString().find("7 more"), std::string::npos);
}

}  // namespace
}  // namespace qpe
