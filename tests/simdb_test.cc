#include <algorithm>
#include <set>
#include <string>

#include "catalog/schemas.h"
#include "config/db_config.h"
#include "config/lhs_sampler.h"
#include "gtest/gtest.h"
#include "plan/linearize.h"
#include "simdb/executor.h"
#include "simdb/planner.h"
#include "simdb/workload_runner.h"
#include "simdb/workloads.h"
#include "util/rng.h"

namespace qpe::simdb {
namespace {

config::DbConfig MidConfig() { return config::DbConfig(); }

QuerySpec SimpleJoinSpec() {
  QuerySpec spec;
  spec.tables = {"orders", "lineitem"};
  JoinSpec join;
  join.left_table = "orders";
  join.left_column = "o_orderkey";
  join.right_table = "lineitem";
  join.right_column = "l_orderkey";
  spec.joins = {join};
  FilterSpec filter;
  filter.table = "orders";
  filter.column = "o_orderdate";
  filter.selectivity = 0.05;
  spec.filters = {filter};
  spec.has_aggregate = true;
  spec.num_group_keys = 1;
  spec.group_fraction = 0.001;
  spec.has_sort = true;
  spec.cardinality_seed = 777;
  return spec;
}

TEST(PlannerTest, ProducesConnectedTree) {
  const catalog::Catalog cat = catalog::MakeTpchCatalog(1.0);
  const config::DbConfig cfg = MidConfig();
  Planner planner(&cat, &cfg);
  const plan::Plan planned = planner.PlanQuery(SimpleJoinSpec());
  ASSERT_NE(planned.root, nullptr);
  EXPECT_GE(planned.NumNodes(), 4);
  // Two scan relations appear somewhere in the tree.
  std::set<std::string> rels;
  planned.root->Visit([&](const plan::PlanNode& n) {
    for (const auto& r : n.relations()) rels.insert(r);
  });
  EXPECT_TRUE(rels.count("orders"));
  EXPECT_TRUE(rels.count("lineitem"));
}

TEST(PlannerTest, EstimatesPopulated) {
  const catalog::Catalog cat = catalog::MakeTpchCatalog(1.0);
  const config::DbConfig cfg = MidConfig();
  Planner planner(&cat, &cfg);
  const plan::Plan planned = planner.PlanQuery(SimpleJoinSpec());
  planned.root->Visit([&](const plan::PlanNode& n) {
    EXPECT_GE(n.props().plan_rows, 0) << n.type().ToString();
    EXPECT_GE(n.props().total_cost, 0) << n.type().ToString();
  });
  EXPECT_GT(planned.root->props().total_cost, 0);
}

TEST(PlannerTest, LowRandomPageCostPrefersIndexScan) {
  const catalog::Catalog cat = catalog::MakeTpchCatalog(1.0);
  QuerySpec spec;
  spec.tables = {"orders"};
  FilterSpec filter;
  filter.table = "orders";
  filter.column = "o_orderdate";  // indexed, correlated
  filter.selectivity = 0.001;
  spec.filters = {filter};

  config::DbConfig cheap_random = MidConfig();
  cheap_random.Set(config::Knob::kRandomPageCost, 100);  // 0.1x
  cheap_random.Set(config::Knob::kEffectiveCacheSize, 2097152);
  config::DbConfig dear_random = MidConfig();
  dear_random.Set(config::Knob::kRandomPageCost, 10000);  // 10x
  dear_random.Set(config::Knob::kEffectiveCacheSize, 65536);
  dear_random.Set(config::Knob::kSharedBuffers, 16384);

  Planner cheap_planner(&cat, &cheap_random);
  Planner dear_planner(&cat, &dear_random);
  const std::string cheap_type =
      cheap_planner.PlanQuery(spec).root->type().ToString();
  const std::string dear_type =
      dear_planner.PlanQuery(spec).root->type().ToString();
  // Cheap random IO: some index-based access path. The expensive-random
  // config should not pick the plain index scan for the same query.
  EXPECT_NE(cheap_type, "Scan-Seq");
  EXPECT_NE(cheap_type, dear_type);
}

TEST(PlannerTest, HighSelectivityUsesSeqScanFamily) {
  const catalog::Catalog cat = catalog::MakeTpchCatalog(1.0);
  QuerySpec spec;
  spec.tables = {"lineitem"};
  FilterSpec filter;
  filter.table = "lineitem";
  filter.column = "l_shipdate";
  filter.selectivity = 0.95;
  spec.filters = {filter};
  const config::DbConfig cfg = MidConfig();
  Planner planner(&cat, &cfg);
  // A 95%-selectivity filter must not pick an index path; big tables may be
  // scanned in parallel under a Gather node.
  const plan::Plan planned = planner.PlanQuery(spec);
  const std::string root_type = planned.root->type().ToString();
  if (root_type == "Gather") {
    ASSERT_EQ(planned.root->children().size(), 1u);
    EXPECT_EQ(planned.root->children()[0]->type().ToString(),
              "Scan-Seq-Parallel");
  } else {
    EXPECT_EQ(root_type, "Scan-Seq");
  }
}

TEST(PlannerTest, ParallelScanOnlyForBigTables) {
  const catalog::Catalog cat = catalog::MakeTpchCatalog(1.0);
  const config::DbConfig cfg = MidConfig();
  Planner planner(&cat, &cfg);
  // Tiny table: never parallel.
  QuerySpec small;
  small.tables = {"nation"};
  EXPECT_EQ(planner.PlanQuery(small).root->type().ToString(), "Scan-Seq");
  // Huge unfiltered scan: parallel wins (CPU divides, setup amortized).
  QuerySpec big;
  big.tables = {"lineitem"};
  EXPECT_EQ(planner.PlanQuery(big).root->type().ToString(), "Gather");
}

TEST(ExecutorTest, ParallelScanFasterThanSerialForCpuBound) {
  const catalog::Catalog cat = catalog::MakeTpchCatalog(1.0);
  // Fully cached: CPU dominates, so 4 workers should win clearly.
  config::DbConfig warm = MidConfig();
  warm.Set(config::Knob::kSharedBuffers, 4194304 * 1000.0);
  QuerySpec spec;
  spec.tables = {"lineitem"};
  spec.cardinality_seed = 11;
  Planner planner(&cat, &warm);
  ExecutorSim executor(&cat, &warm);
  plan::Plan parallel_plan = planner.PlanQuery(spec);
  ASSERT_EQ(parallel_plan.root->type().ToString(), "Gather");
  util::Rng noise(1);
  const double parallel_ms =
      executor.Execute(&parallel_plan, spec.cardinality_seed, &noise);

  // Force the serial plan by planning a copy with the Gather stripped: use
  // a small work table trick — compare against the serial estimate instead.
  plan::Plan serial_plan;
  serial_plan.root =
      std::make_unique<plan::PlanNode>(plan::OperatorType::Parse("Scan-Seq"));
  serial_plan.root->AddRelation("lineitem");
  serial_plan.root->props().plan_rows =
      cat.FindTable("lineitem")->row_count;
  serial_plan.root->props().plan_width = 100;
  util::Rng noise2(1);
  const double serial_ms =
      executor.Execute(&serial_plan, spec.cardinality_seed, &noise2);
  EXPECT_LT(parallel_ms, serial_ms);
}

TEST(PlannerTest, SmallWorkMemBatchesHashJoin) {
  const catalog::Catalog cat = catalog::MakeTpchCatalog(1.0);
  config::DbConfig small_mem = MidConfig();
  small_mem.Set(config::Knob::kWorkMem, 65536);  // 64 KB
  Planner planner(&cat, &small_mem);
  const plan::Plan planned = planner.PlanQuery(SimpleJoinSpec());
  double max_batches = 0;
  planned.root->Visit([&](const plan::PlanNode& n) {
    max_batches = std::max(max_batches, n.props().hash_batches);
  });
  double large_sort_or_batches = max_batches;
  // Either the hash join batches, or the planner avoided hash join; in the
  // latter case an external sort shows up for merge/group paths.
  planned.root->Visit([&](const plan::PlanNode& n) {
    if (n.props().sort_space_on_disk) large_sort_or_batches += 1;
  });
  EXPECT_GT(large_sort_or_batches, 1.0);
}

TEST(PlannerTest, WorkMemSwitchesAggregateStrategy) {
  const catalog::Catalog cat = catalog::MakeTpchCatalog(1.0);
  QuerySpec spec = SimpleJoinSpec();
  spec.group_fraction = 0.5;  // many groups
  config::DbConfig small_mem = MidConfig();
  small_mem.Set(config::Knob::kWorkMem, 65536);
  config::DbConfig big_mem = MidConfig();
  big_mem.Set(config::Knob::kWorkMem, 33554432);

  auto agg_strategy = [&](const config::DbConfig& cfg) {
    Planner planner(&cat, &cfg);
    const plan::Plan planned = planner.PlanQuery(spec);
    plan::AggregateStrategy strategy = plan::AggregateStrategy::kNone;
    planned.root->Visit([&](const plan::PlanNode& n) {
      if (n.props().aggregate_strategy != plan::AggregateStrategy::kNone) {
        strategy = n.props().aggregate_strategy;
      }
    });
    return strategy;
  };
  EXPECT_EQ(agg_strategy(small_mem), plan::AggregateStrategy::kSorted);
  // Plenty of work_mem and few enough groups -> hash aggregation. (The
  // group count here is large, so sorted remains possible; use a smaller
  // group fraction for the hashed expectation.)
  spec.group_fraction = 1e-6;
  EXPECT_EQ(agg_strategy(big_mem), plan::AggregateStrategy::kHashed);
}

TEST(ExecutorTest, FillsActualsAndPositiveLatency) {
  const catalog::Catalog cat = catalog::MakeTpchCatalog(0.1);
  const config::DbConfig cfg = MidConfig();
  Planner planner(&cat, &cfg);
  ExecutorSim executor(&cat, &cfg);
  plan::Plan planned = planner.PlanQuery(SimpleJoinSpec());
  util::Rng noise(1);
  const double latency = executor.Execute(&planned, 777, &noise);
  EXPECT_GT(latency, 0);
  EXPECT_DOUBLE_EQ(planned.root->props().actual_total_time_ms, latency);
  planned.root->Visit([&](const plan::PlanNode& n) {
    EXPECT_GE(n.props().actual_rows, 1) << n.type().ToString();
    EXPECT_GE(n.props().actual_total_time_ms, 0);
    EXPECT_LE(n.props().actual_startup_time_ms,
              n.props().actual_total_time_ms + 1e-9);
  });
}

TEST(ExecutorTest, ParentTimeIncludesChildren) {
  const catalog::Catalog cat = catalog::MakeTpchCatalog(0.1);
  const config::DbConfig cfg = MidConfig();
  Planner planner(&cat, &cfg);
  ExecutorSim executor(&cat, &cfg);
  plan::Plan planned = planner.PlanQuery(SimpleJoinSpec());
  util::Rng noise(1);
  executor.Execute(&planned, 777, &noise);
  planned.root->Visit([&](const plan::PlanNode& n) {
    if (n.type().ToString() == "Limit") return;  // limit can stop early
    for (const auto& child : n.children()) {
      EXPECT_GE(n.props().actual_total_time_ms,
                child->props().actual_total_time_ms * 0.99)
          << n.type().ToString();
    }
  });
}

TEST(ExecutorTest, CardinalitiesStableAcrossConfigs) {
  // Same instance, different knobs -> same data -> (roughly) same actual
  // rows at the scan level when the chosen scan type matches.
  const catalog::Catalog cat = catalog::MakeTpchCatalog(0.1);
  config::DbConfig a = MidConfig();
  config::DbConfig b = MidConfig();
  b.Set(config::Knob::kSharedBuffers, 4194304);
  const QuerySpec spec = SimpleJoinSpec();
  double rows_a = 0, rows_b = 0;
  {
    Planner planner(&cat, &a);
    ExecutorSim executor(&cat, &a);
    plan::Plan p = planner.PlanQuery(spec);
    util::Rng noise(1);
    executor.Execute(&p, spec.cardinality_seed, &noise);
    rows_a = p.root->props().actual_rows;
  }
  {
    Planner planner(&cat, &b);
    ExecutorSim executor(&cat, &b);
    plan::Plan p = planner.PlanQuery(spec);
    util::Rng noise(99);
    executor.Execute(&p, spec.cardinality_seed, &noise);
    rows_b = p.root->props().actual_rows;
  }
  EXPECT_DOUBLE_EQ(rows_a, rows_b);
}

TEST(ExecutorTest, MoreCacheIsFaster) {
  const catalog::Catalog cat = catalog::MakeTpchCatalog(1.0);
  QuerySpec spec;
  spec.tables = {"lineitem"};
  spec.has_aggregate = true;
  spec.cardinality_seed = 5;
  config::DbConfig cold = MidConfig();
  cold.Set(config::Knob::kSharedBuffers, 16384);
  cold.Set(config::Knob::kEffectiveCacheSize, 65536);
  config::DbConfig warm = MidConfig();
  warm.Set(config::Knob::kSharedBuffers, 4194304 * 400.0);  // cache ~ table
  warm.Set(config::Knob::kEffectiveCacheSize, 2097152 * 400.0);

  auto latency = [&](const config::DbConfig& cfg) {
    Planner planner(&cat, &cfg);
    ExecutorSim executor(&cat, &cfg);
    plan::Plan p = planner.PlanQuery(spec);
    util::Rng noise(1);
    return executor.Execute(&p, spec.cardinality_seed, &noise);
  };
  EXPECT_GT(latency(cold), latency(warm));
}

TEST(ExecutorTest, SmallWorkMemSlowsBigSort) {
  const catalog::Catalog cat = catalog::MakeTpchCatalog(1.0);
  QuerySpec spec;
  spec.tables = {"orders"};
  spec.has_sort = true;
  spec.cardinality_seed = 6;
  config::DbConfig small_mem = MidConfig();
  small_mem.Set(config::Knob::kWorkMem, 65536);
  config::DbConfig big_mem = MidConfig();
  big_mem.Set(config::Knob::kWorkMem, 33554432 * 20.0);

  auto run = [&](const config::DbConfig& cfg) {
    Planner planner(&cat, &cfg);
    ExecutorSim executor(&cat, &cfg);
    plan::Plan p = planner.PlanQuery(spec);
    util::Rng noise(1);
    const double lat = executor.Execute(&p, spec.cardinality_seed, &noise);
    plan::SortMethod method = plan::SortMethod::kUnknown;
    p.root->Visit([&](const plan::PlanNode& n) {
      if (n.props().sort_method != plan::SortMethod::kUnknown) {
        method = n.props().sort_method;
      }
    });
    return std::make_pair(lat, method);
  };
  const auto [small_lat, small_method] = run(small_mem);
  const auto [big_lat, big_method] = run(big_mem);
  EXPECT_EQ(small_method, plan::SortMethod::kExternalMerge);
  EXPECT_EQ(big_method, plan::SortMethod::kQuicksort);
  EXPECT_GT(small_lat, big_lat);
}

TEST(WorkloadsTest, TemplateCounts) {
  EXPECT_EQ(TpchWorkload(0.1).NumTemplates(), 22);
  EXPECT_EQ(TpcdsWorkload(0.1).NumTemplates(), 60);
  EXPECT_EQ(JobWorkload().NumTemplates(), 113);
  EXPECT_EQ(SpatialWorkload().NumTemplates(), 20);
}

TEST(WorkloadsTest, JobClustersCoverRange) {
  const JobWorkload job;
  std::set<int> clusters;
  for (int i = 0; i < job.NumTemplates(); ++i) {
    clusters.insert(job.ClusterOf(i));
  }
  EXPECT_EQ(clusters.size(), 33u);
  EXPECT_EQ(*clusters.begin(), 0);
  EXPECT_EQ(*clusters.rbegin(), 32);
}

TEST(WorkloadsTest, JobVariantsShareJoinGraph) {
  const JobWorkload job;
  // Templates 0..3 are cluster 0 variants: same tables, different filters.
  const QuerySpec& a = job.Template(0);
  const QuerySpec& b = job.Template(1);
  EXPECT_EQ(a.cluster_id, b.cluster_id);
  EXPECT_EQ(a.tables, b.tables);
  bool filters_differ = a.filters.size() != b.filters.size();
  for (size_t i = 0; !filters_differ && i < a.filters.size(); ++i) {
    filters_differ = a.filters[i].selectivity != b.filters[i].selectivity;
  }
  EXPECT_TRUE(filters_differ);
}

TEST(WorkloadsTest, AllTemplatesReferToCatalogTables) {
  const TpchWorkload tpch(0.1);
  const TpcdsWorkload tpcds(0.1);
  const JobWorkload job;
  const SpatialWorkload spatial;
  for (const BenchmarkWorkload* workload :
       {static_cast<const BenchmarkWorkload*>(&tpch),
        static_cast<const BenchmarkWorkload*>(&tpcds),
        static_cast<const BenchmarkWorkload*>(&job),
        static_cast<const BenchmarkWorkload*>(&spatial)}) {
    for (int i = 0; i < workload->NumTemplates(); ++i) {
      const QuerySpec& spec = workload->Template(i);
      for (const std::string& table : spec.tables) {
        EXPECT_NE(workload->GetCatalog().FindTable(table), nullptr)
            << spec.benchmark << " " << spec.template_id << " " << table;
      }
      for (const FilterSpec& filter : spec.filters) {
        const auto* table = workload->GetCatalog().FindTable(filter.table);
        ASSERT_NE(table, nullptr);
        EXPECT_NE(table->FindColumn(filter.column), nullptr)
            << spec.template_id << " " << filter.table << "." << filter.column;
      }
      for (const JoinSpec& join : spec.joins) {
        const auto* lt = workload->GetCatalog().FindTable(join.left_table);
        const auto* rt = workload->GetCatalog().FindTable(join.right_table);
        ASSERT_NE(lt, nullptr) << spec.template_id;
        ASSERT_NE(rt, nullptr) << spec.template_id;
        EXPECT_NE(lt->FindColumn(join.left_column), nullptr)
            << spec.template_id << " " << join.left_table << "."
            << join.left_column;
        EXPECT_NE(rt->FindColumn(join.right_column), nullptr)
            << spec.template_id << " " << join.right_table << "."
            << join.right_column;
      }
    }
  }
}

TEST(WorkloadsTest, InstantiateJittersSelectivity) {
  const TpchWorkload tpch(0.1);
  util::Rng rng(3);
  const QuerySpec a = tpch.Instantiate(2, &rng);
  const QuerySpec b = tpch.Instantiate(2, &rng);
  ASSERT_FALSE(a.filters.empty());
  EXPECT_NE(a.filters[0].selectivity, b.filters[0].selectivity);
  EXPECT_NE(a.cardinality_seed, b.cardinality_seed);
}

TEST(WorkloadsTest, AllTemplatesPlanAndExecute) {
  const TpchWorkload tpch(0.05);
  const SpatialWorkload spatial(0.05);
  const config::DbConfig cfg = MidConfig();
  for (const BenchmarkWorkload* workload :
       {static_cast<const BenchmarkWorkload*>(&tpch),
        static_cast<const BenchmarkWorkload*>(&spatial)}) {
    util::Rng rng(1);
    Planner planner(&workload->GetCatalog(), &cfg);
    ExecutorSim executor(&workload->GetCatalog(), &cfg);
    for (int i = 0; i < workload->NumTemplates(); ++i) {
      const QuerySpec spec = workload->Instantiate(i, &rng);
      plan::Plan p = planner.PlanQuery(spec);
      ASSERT_NE(p.root, nullptr) << spec.template_id;
      util::Rng noise(i);
      const double latency =
          executor.Execute(&p, spec.cardinality_seed, &noise);
      EXPECT_GT(latency, 0) << spec.template_id;
    }
  }
}

TEST(WorkloadRunnerTest, RecordCountAndVariability) {
  const TpchWorkload tpch(0.05);
  config::LhsSampler sampler((util::Rng(4)));
  const auto configs = sampler.Sample(8);
  RunOptions options;
  options.instances_per_template = 1;
  const auto executed =
      RunWorkloadTemplates(tpch, {2, 4}, configs, options);
  EXPECT_EQ(executed.size(), 2u * 8u);
  // Latency varies across configurations for the same template instance.
  std::vector<double> q3;
  for (const auto& record : executed) {
    if (record.template_index == 2) q3.push_back(record.latency_ms);
  }
  EXPECT_EQ(q3.size(), 8u);
  EXPECT_GT(*std::max_element(q3.begin(), q3.end()),
            *std::min_element(q3.begin(), q3.end()));
}

TEST(WorkloadRunnerTest, DeterministicForSeed) {
  const TpchWorkload tpch(0.05);
  config::LhsSampler sampler((util::Rng(4)));
  const auto configs = sampler.Sample(3);
  RunOptions options;
  options.seed = 11;
  const auto a = RunWorkloadTemplates(tpch, {0}, configs, options);
  const auto b = RunWorkloadTemplates(tpch, {0}, configs, options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].latency_ms, b[i].latency_ms);
  }
}

}  // namespace
}  // namespace qpe::simdb
