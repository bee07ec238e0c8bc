#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "config/db_config.h"
#include "data/plan_corpus.h"
#include "gtest/gtest.h"
#include "plan/linearize.h"
#include "plan/plan_node.h"
#include "plan/serialize.h"
#include "plan/taxonomy.h"
#include "simdb/executor.h"
#include "simdb/planner.h"
#include "simdb/workloads.h"
#include "util/rng.h"
#include "util/status.h"

namespace qpe::plan {
namespace {

OperatorType Op(const std::string& token) { return OperatorType::Parse(token); }

// Builds the running example from the paper's Figure 1 / Table 3 (TPC-H Q5
// shape): Filter(Sort(Aggregate(HashJoin(NestedLoop(...), ...)))).
std::unique_ptr<PlanNode> BuildPaperExample() {
  auto root = std::make_unique<PlanNode>(Op("Filter"));
  PlanNode* sort = root->AddChild(Op("Sort"));
  PlanNode* agg = sort->AddChild(Op("Aggregate"));
  PlanNode* hash_join = agg->AddChild(Op("Join-Hash"));
  PlanNode* nested1 = hash_join->AddChild(Op("Loop-Nested"));
  PlanNode* join2 = nested1->AddChild(Op("Join-Hash"));
  PlanNode* hash = join2->AddChild(Op("Hash"));
  PlanNode* nested2 = hash->AddChild(Op("Loop-Nested"));
  PlanNode* nested3 = nested2->AddChild(Op("Loop-Nested"));
  nested3->AddChild(Op("Scan-Index"));
  nested3->AddChild(Op("Scan-Seq"));
  nested2->AddChild(Op("Scan-Heap-Bitmap"));
  join2->AddChild(Op("Scan-Index-Bitmap"));
  nested1->AddChild(Op("Scan-Index"));
  hash_join->AddChild(Op("Scan-Seq"));
  return root;
}

TEST(TaxonomyTest, SpecialTokensExist) {
  const Taxonomy& tax = Taxonomy::Get();
  EXPECT_GE(tax.br_open(), 0);
  EXPECT_GE(tax.br_close(), 0);
  EXPECT_GE(tax.cls(), 0);
  EXPECT_GE(tax.sep(), 0);
  EXPECT_EQ(tax.Level1Name(0), "NIL");
  EXPECT_EQ(tax.Level2Name(0), "NIL");
  EXPECT_EQ(tax.Level3Name(0), "NIL");
}

TEST(TaxonomyTest, LookupRoundTrip) {
  const Taxonomy& tax = Taxonomy::Get();
  for (int i = 0; i < tax.Level1Count(); ++i) {
    EXPECT_EQ(tax.Level1Id(tax.Level1Name(i)), i);
  }
  for (int i = 0; i < tax.Level2Count(); ++i) {
    EXPECT_EQ(tax.Level2Id(tax.Level2Name(i)), i);
  }
  for (int i = 0; i < tax.Level3Count(); ++i) {
    EXPECT_EQ(tax.Level3Id(tax.Level3Name(i)), i);
  }
}

TEST(TaxonomyTest, UnknownNameMapsToReservedUnknownToken) {
  const Taxonomy& tax = Taxonomy::Get();
  // Lenient lookups resolve foreign names to the reserved UNKNOWN sub-type
  // (a real embedding row), never to a sentinel a consumer could index with.
  EXPECT_EQ(tax.Level1Id("NotAnOperator"), tax.unknown1());
  EXPECT_EQ(tax.Level2Id("NotAnOperator"), tax.unknown2());
  EXPECT_EQ(tax.Level3Id("NotAnOperator"), tax.unknown3());
  EXPECT_EQ(tax.Level1Name(tax.unknown1()), "UNKNOWN");
  // Strict lookups keep the detection capability.
  EXPECT_EQ(tax.FindLevel1("NotAnOperator"), -1);
  EXPECT_EQ(tax.FindLevel2("NotAnOperator"), -1);
  EXPECT_EQ(tax.FindLevel3("NotAnOperator"), -1);
  EXPECT_EQ(tax.FindLevel1("Scan"), tax.Level1Id("Scan"));
}

TEST(TaxonomyTest, OutOfRangeIdNamesAsUnknown) {
  const Taxonomy& tax = Taxonomy::Get();
  EXPECT_EQ(tax.Level1Name(-1), "UNKNOWN");
  EXPECT_EQ(tax.Level1Name(tax.Level1Count() + 40), "UNKNOWN");
  EXPECT_EQ(tax.Level2Name(255), "UNKNOWN");
  EXPECT_EQ(tax.Level3Name(255), "UNKNOWN");
}

TEST(TaxonomyTest, OperatorOrderMatchesFullTokenOrderOnEveryPair) {
  // Every id triple, including one out-of-range id per level (it prints,
  // and so must sort, as UNKNOWN): a < b exactly when a's full token sorts
  // below b's. Tokens are ranked once so the 12,420^2 pairs stay cheap.
  const Taxonomy& tax = Taxonomy::Get();
  std::vector<OperatorType> ops;
  for (int a = 0; a <= tax.Level1Count(); ++a) {
    for (int b = 0; b <= tax.Level2Count(); ++b) {
      for (int c = 0; c <= tax.Level3Count(); ++c) {
        ops.emplace_back(static_cast<uint8_t>(a), static_cast<uint8_t>(b),
                         static_cast<uint8_t>(c));
      }
    }
  }
  std::vector<std::string> tokens;
  for (const OperatorType& op : ops) tokens.push_back(op.ToString(true));
  std::vector<int> order(ops.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&tokens](int x, int y) { return tokens[x] < tokens[y]; });
  std::vector<int> rank(ops.size());
  for (size_t i = 0, r = 0; i < order.size(); ++i) {
    if (i > 0 && tokens[order[i]] != tokens[order[i - 1]]) ++r;
    rank[order[i]] = static_cast<int>(r);
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    for (size_t j = 0; j < ops.size(); ++j) {
      if ((ops[i] < ops[j]) != (rank[i] < rank[j])) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(ops.size(), 12420u);
}

TEST(OperatorTypeTest, ParseHyphenated) {
  const OperatorType scan = Op("Scan-Heap-Bitmap");
  EXPECT_EQ(scan.ToString(), "Scan-Heap-Bitmap");
  const OperatorType join = Op("Join-Merge-Left");
  EXPECT_EQ(join.ToString(), "Join-Merge-Left");
}

TEST(OperatorTypeTest, MissingLevelsAreNil) {
  const OperatorType sort = Op("Sort");
  EXPECT_EQ(sort.level2, 0);
  EXPECT_EQ(sort.level3, 0);
  EXPECT_EQ(sort.ToString(), "Sort");
  EXPECT_EQ(sort.ToString(/*full=*/true), "Sort-NIL-NIL");
}

TEST(OperatorTypeTest, FullStringParseRoundTrip) {
  const OperatorType t = Op("Join-Merge-Left");
  EXPECT_EQ(OperatorType::Parse(t.ToString(true)), t);
}

TEST(OperatorTypeTest, GroupMapping) {
  EXPECT_EQ(GroupOf(Op("Scan-Seq")), OperatorGroup::kScan);
  EXPECT_EQ(GroupOf(Op("Scan-Heap-Bitmap")), OperatorGroup::kScan);
  EXPECT_EQ(GroupOf(Op("Join-Hash")), OperatorGroup::kJoin);
  EXPECT_EQ(GroupOf(Op("Join-Merge-Left")), OperatorGroup::kJoin);
  EXPECT_EQ(GroupOf(Op("Loop-Nested")), OperatorGroup::kJoin);
  EXPECT_EQ(GroupOf(Op("Sort")), OperatorGroup::kSort);
  EXPECT_EQ(GroupOf(Op("Aggregate-Hash")), OperatorGroup::kAggregate);
  EXPECT_EQ(GroupOf(Op("GroupAggregate")), OperatorGroup::kAggregate);
  EXPECT_EQ(GroupOf(Op("Limit")), OperatorGroup::kOther);
  EXPECT_EQ(GroupOf(Op("Materialize")), OperatorGroup::kOther);
}

TEST(PlanNodeTest, NumNodesAndDepth) {
  const auto plan = BuildPaperExample();
  EXPECT_EQ(plan->NumNodes(), 15);
  EXPECT_EQ(plan->Depth(), 10);
}

TEST(PlanNodeTest, CloneIsDeepAndEqualShape) {
  const auto plan = BuildPaperExample();
  const auto copy = plan->Clone();
  EXPECT_EQ(copy->NumNodes(), plan->NumNodes());
  EXPECT_EQ(ToBracketString(LinearizeDfsBracket(*copy)),
            ToBracketString(LinearizeDfsBracket(*plan)));
}

TEST(LinearizeTest, ClsAndSepDelimit) {
  const auto plan = BuildPaperExample();
  const auto tokens = LinearizeDfsBracket(*plan, /*add_cls_sep=*/true);
  const Taxonomy& tax = Taxonomy::Get();
  EXPECT_EQ(tokens.front().level1, tax.cls());
  EXPECT_EQ(tokens.back().level1, tax.sep());
}

TEST(LinearizeTest, BracketsBalance) {
  const auto plan = BuildPaperExample();
  const auto tokens = LinearizeDfsBracket(*plan);
  const Taxonomy& tax = Taxonomy::Get();
  int depth = 0;
  for (const auto& t : tokens) {
    if (t.level1 == tax.br_open()) ++depth;
    if (t.level1 == tax.br_close()) --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(LinearizeTest, TokenCountFormula) {
  // CLS + SEP + one token per node + 2 brackets per internal node.
  const auto plan = BuildPaperExample();
  const auto tokens = LinearizeDfsBracket(*plan);
  int internal = 0;
  plan->Visit([&](const PlanNode& n) { internal += !n.children().empty(); });
  EXPECT_EQ(static_cast<int>(tokens.size()), 2 + plan->NumNodes() + 2 * internal);
}

TEST(LinearizeTest, DeterministicUnderChildOrder) {
  // Children are sorted by typename, so insertion order must not matter.
  auto a = std::make_unique<PlanNode>(Op("Join-Hash"));
  a->AddChild(Op("Scan-Seq"));
  a->AddChild(Op("Scan-Index"));
  auto b = std::make_unique<PlanNode>(Op("Join-Hash"));
  b->AddChild(Op("Scan-Index"));
  b->AddChild(Op("Scan-Seq"));
  EXPECT_EQ(ToBracketString(LinearizeDfsBracket(*a)),
            ToBracketString(LinearizeDfsBracket(*b)));
}

TEST(LinearizeTest, BracketDisambiguatesWhereDfsDoesNot) {
  // Chain: A -> B -> C versus A with children B and C. Plain DFS gives the
  // same sequence; DFS-bracket distinguishes them.
  auto chain = std::make_unique<PlanNode>(Op("Sort"));
  chain->AddChild(Op("Aggregate"))->AddChild(Op("Scan-Seq"));
  auto fanout = std::make_unique<PlanNode>(Op("Sort"));
  fanout->AddChild(Op("Aggregate"));
  fanout->AddChild(Op("Scan-Seq"));

  const auto dfs_chain = LinearizeDfs(*chain);
  const auto dfs_fanout = LinearizeDfs(*fanout);
  ASSERT_EQ(dfs_chain.size(), dfs_fanout.size());
  bool same = true;
  for (size_t i = 0; i < dfs_chain.size(); ++i) {
    same = same && dfs_chain[i] == dfs_fanout[i];
  }
  EXPECT_TRUE(same);

  EXPECT_NE(ToBracketString(LinearizeDfsBracket(*chain)),
            ToBracketString(LinearizeDfsBracket(*fanout)));
}

TEST(LinearizeTest, BfsOrdersByLevel) {
  const auto plan = BuildPaperExample();
  const auto tokens = LinearizeBfs(*plan);
  EXPECT_EQ(static_cast<int>(tokens.size()), plan->NumNodes());
  EXPECT_EQ(tokens[0].ToString(), "Filter");
  EXPECT_EQ(tokens[1].ToString(), "Sort");
}

TEST(SerializeTest, NodeRoundTrip) {
  auto plan = BuildPaperExample();
  plan->props().plan_rows = 1234;
  plan->props().actual_total_time_ms = 56.5;
  plan->children()[0]->props().sort_method = SortMethod::kExternalMerge;
  const std::string text = SerializePlanNode(*plan);
  const auto parsed = ParsePlanNode(text);
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->NumNodes(), plan->NumNodes());
  EXPECT_DOUBLE_EQ(parsed->props().plan_rows, 1234);
  EXPECT_DOUBLE_EQ(parsed->props().actual_total_time_ms, 56.5);
  EXPECT_EQ(parsed->children()[0]->props().sort_method,
            SortMethod::kExternalMerge);
  EXPECT_EQ(SerializePlanNode(*parsed), text);
}

TEST(SerializeTest, RelationsRoundTrip) {
  PlanNode scan(Op("Scan-Seq"));
  scan.AddRelation("lineitem");
  scan.AddRelation("orders");
  const auto parsed = ParsePlanNode(SerializePlanNode(scan));
  ASSERT_NE(parsed, nullptr);
  ASSERT_EQ(parsed->relations().size(), 2u);
  EXPECT_EQ(parsed->relations()[0], "lineitem");
  EXPECT_EQ(parsed->relations()[1], "orders");
}

TEST(SerializeTest, PlanMetadataRoundTrip) {
  Plan plan;
  plan.root = BuildPaperExample();
  plan.benchmark = "tpch";
  plan.template_id = "Q5";
  plan.cluster_id = 7;
  const auto parsed = ParsePlanChecked(SerializePlan(plan));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->benchmark, "tpch");
  EXPECT_EQ(parsed->template_id, "Q5");
  EXPECT_EQ(parsed->cluster_id, 7);
  EXPECT_EQ(parsed->NumNodes(), 15);
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(SerializeTest, ValuesParseToExactlyTheBitsStrtodGives) {
  // "nan(...)" cannot reach the parser as one word: '(' ends a word.
  const std::vector<std::string> spellings = {
      "1e308", "1e309", "-1e309", "4.9406564584124654e-324", "2e-324",
      "1e-400", "2.2250738585072011e-308", "1.7976931348623157e308", "-0",
      "0", "inf", "-inf", "INFINITY", "nan", "-nan", "NAN", "0x1p3",
      "0X1.8P-1", "-0x10", "+5", "+.5", ".5", "5.", "-.5e-3", "1e", "1e+",
      "1E5", "12abc", "", ".", "-", "0.1", "9007199254740993",
      "0.1000000000000000055511151231257827021181583404541015625",
      "123456789012345678901234567890", "0." + std::string(80, '0') + "1",
      std::string(70, '9') + "e-60",
      // Longer than the stack copy and not a plain decimal.
      "+0." + std::string(80, '0') + "1", "0x" + std::string(70, '0') + "1p0"};
  for (const std::string& spelling : spellings) {
    const std::string text =
        "(op \"Scan-Seq-NIL\" :plan_rows " + spelling + ")";
    const auto parsed = ParsePlanNodeChecked(text);
    ASSERT_TRUE(parsed.ok()) << "'" << spelling << "': "
                             << parsed.status().ToString();
    EXPECT_EQ(Bits((*parsed)->props().plan_rows),
              Bits(std::strtod(spelling.c_str(), nullptr)))
        << "'" << spelling << "'";
  }
}

#define QPE_DOUBLE_PROPS(X)                                                  \
  X(actual_loops) X(actual_rows) X(plan_rows) X(plan_width)                  \
  X(shared_hit_blocks) X(shared_read_blocks) X(shared_dirtied_blocks)        \
  X(shared_written_blocks) X(local_hit_blocks) X(local_read_blocks)          \
  X(local_dirtied_blocks) X(local_written_blocks) X(temp_read_blocks)        \
  X(temp_written_blocks) X(plan_buffers) X(rows_removed_by_filter)           \
  X(heap_blocks) X(rows_removed_by_join_filter) X(hash_buckets)              \
  X(hash_batches) X(sort_space_used_kb) X(num_sort_keys) X(peak_memory_kb)   \
  X(startup_cost) X(total_cost) X(actual_startup_time_ms)                    \
  X(actual_total_time_ms)
#define QPE_OTHER_PROPS(X)                                                   \
  X(parent_relationship) X(scan_direction) X(has_index_condition)            \
  X(has_recheck_condition) X(has_filter) X(parallel) X(join_kind)            \
  X(inner_unique) X(has_merge_condition) X(has_hash_condition)               \
  X(sort_method) X(sort_space_on_disk) X(aggregate_strategy)                 \
  X(parallel_aware) X(partial_mode)

void ExpectSameTree(const PlanNode& a, const PlanNode& b) {
  ASSERT_EQ(a.type(), b.type());
  EXPECT_EQ(a.relations(), b.relations());
#define QPE_EXPECT_SAME_BITS(f) \
  EXPECT_EQ(Bits(a.props().f), Bits(b.props().f)) << #f;
#define QPE_EXPECT_EQ(f) EXPECT_EQ(a.props().f, b.props().f) << #f;
  QPE_DOUBLE_PROPS(QPE_EXPECT_SAME_BITS)
  QPE_OTHER_PROPS(QPE_EXPECT_EQ)
#undef QPE_EXPECT_SAME_BITS
#undef QPE_EXPECT_EQ
  ASSERT_EQ(a.children().size(), b.children().size());
  for (size_t i = 0; i < a.children().size(); ++i) {
    ExpectSameTree(*a.children()[i], *b.children()[i]);
  }
}

TEST(SerializeTest, RoundTripIsByteIdenticalAcrossBenchmarksAndGenerator) {
  std::vector<std::unique_ptr<PlanNode>> plans;
  const config::DbConfig db_config;
  util::Rng rng(31);
  const simdb::TpchWorkload tpch(0.05);
  const simdb::TpcdsWorkload tpcds(0.05);
  const simdb::JobWorkload job;
  const std::vector<const simdb::BenchmarkWorkload*> workloads = {
      &tpch, &tpcds, &job};
  for (const simdb::BenchmarkWorkload* workload : workloads) {
    const simdb::Planner planner(&workload->GetCatalog(), &db_config);
    const simdb::ExecutorSim executor(&workload->GetCatalog(), &db_config);
    for (int t = 0; t < workload->NumTemplates(); ++t) {
      Plan planned = planner.PlanQuery(workload->Instantiate(t, &rng));
      util::Rng noise(static_cast<uint64_t>(t));
      executor.Execute(&planned, static_cast<uint64_t>(t) + 1, &noise);
      plans.push_back(std::move(planned.root));
    }
  }
  data::RandomPlanGenerator generator{util::Rng(32)};
  for (int i = 0; i < 200; ++i) plans.push_back(generator.Generate());

  for (const auto& plan : plans) {
    const std::string text = SerializePlanNode(*plan);
    const auto parsed = ParsePlanNodeChecked(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(SerializePlanNode(**parsed), text);
    ExpectSameTree(**parsed, *plan);
  }
}

TEST(SerializeTest, NestingPastTheDepthCapIsDataLoss) {
  const std::string open = "(op \"Materialize\" ";
  const auto nested = [&open](int depth) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += open;
    return text + std::string(static_cast<size_t>(depth), ')');
  };
  const auto at_cap = ParsePlanNodeChecked(nested(kMaxPlanTextDepth));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ((*at_cap)->Depth(), kMaxPlanTextDepth);

  // The error names the '(' of the first node past the cap, however deep
  // the text goes on.
  const std::string expected =
      "plan node parse failed: plan nesting deeper than " +
      std::to_string(kMaxPlanTextDepth) + " levels at offset " +
      std::to_string(open.size() * kMaxPlanTextDepth);
  for (const int depth : {kMaxPlanTextDepth + 1, 100000}) {
    const auto parsed = ParsePlanNodeChecked(nested(depth));
    ASSERT_FALSE(parsed.ok()) << depth;
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kDataLoss);
    EXPECT_EQ(parsed.status().message(), expected);
  }
  EXPECT_FALSE(
      ParsePlanChecked("(plan " + nested(kMaxPlanTextDepth + 1) + ")").ok());
}

TEST(SerializeTest, MalformedInputRejected) {
  EXPECT_EQ(ParsePlanNode("(op"), nullptr);
  EXPECT_EQ(ParsePlanNode("(notop \"Sort\")"), nullptr);
  EXPECT_EQ(ParsePlanNode("(op \"Sort\" :bogus_prop 3)"), nullptr);
  EXPECT_FALSE(ParsePlanChecked("(op \"Sort\")").ok());
}

}  // namespace
}  // namespace qpe::plan
