#include "data/plan_corpus.h"

#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "plan/explain_parser.h"

namespace qpe::data {

namespace {

using plan::OperatorType;
using plan::PlanNode;

// Average plan size: the probability of growing another join level below
// depth 2.
constexpr double kJoinGrowth = 0.55;

OperatorType Op(const char* token) { return OperatorType::Parse(token); }

const std::vector<OperatorType>& ScanPool() {
  static const std::vector<OperatorType>* const kPool =
      new std::vector<OperatorType>{
          Op("Scan-Seq"),          Op("Scan-Index"),
          Op("Scan-IndexOnly"),    Op("Scan-Heap-Bitmap"),
          Op("Scan-Index-Bitmap"), Op("Scan-CTE"),
          Op("Scan-Subquery"),     Op("Scan-Foreign"),
          Op("Scan-Table"),        Op("Scan-Seq-Parallel"),
      };
  return *kPool;
}

const std::vector<OperatorType>& JoinPool() {
  static const std::vector<OperatorType>* const kPool =
      new std::vector<OperatorType>{
          Op("Join-Hash"),        Op("Join-Merge"),      Op("Loop-Nested"),
          Op("Join-Hash-Left"),   Op("Join-Merge-Left"), Op("Join-Hash-Semi"),
          Op("Join-Hash-Anti"),   Op("Join-Merge-Full"), Op("Join-Hash-Right"),
      };
  return *kPool;
}

const std::vector<OperatorType>& UnaryPool() {
  static const std::vector<OperatorType>* const kPool =
      new std::vector<OperatorType>{
          Op("Sort"),           Op("Aggregate"),       Op("Aggregate-Hash"),
          Op("GroupAggregate"), Op("Limit"),           Op("Materialize"),
          Op("Unique"),         Op("Hash"),            Op("Gather"),
          Op("Filter"),         Op("WindowAgg"),       Op("Result"),
          Op("Sort-Partial"),   Op("Append"),
      };
  return *kPool;
}

}  // namespace

OperatorType RandomPlanGenerator::RandomScanType() {
  return ScanPool()[rng_.UniformInt(0, ScanPool().size() - 1)];
}
OperatorType RandomPlanGenerator::RandomJoinType() {
  return JoinPool()[rng_.UniformInt(0, JoinPool().size() - 1)];
}
OperatorType RandomPlanGenerator::RandomUnaryType() {
  return UnaryPool()[rng_.UniformInt(0, UnaryPool().size() - 1)];
}

std::unique_ptr<PlanNode> RandomPlanGenerator::GenerateSubtree(int depth,
                                                               int* budget) {
  if (*budget <= 1 || (depth > 2 && !rng_.Bernoulli(kJoinGrowth))) {
    *budget -= 1;
    return std::make_unique<PlanNode>(RandomScanType());
  }
  // Occasionally wrap in a unary operator.
  if (rng_.Bernoulli(0.3) && *budget >= 3) {
    *budget -= 1;
    auto unary = std::make_unique<PlanNode>(RandomUnaryType());
    unary->AddChild(GenerateSubtree(depth + 1, budget));
    return unary;
  }
  *budget -= 1;
  auto join = std::make_unique<PlanNode>(RandomJoinType());
  join->AddChild(GenerateSubtree(depth + 1, budget));
  join->AddChild(GenerateSubtree(depth + 1, budget));
  return join;
}

std::unique_ptr<PlanNode> RandomPlanGenerator::Generate() {
  while (true) {
    int budget = static_cast<int>(
        rng_.UniformInt(options_.min_nodes, options_.max_nodes));
    auto root = std::make_unique<PlanNode>(RandomUnaryType());
    root->AddChild(GenerateSubtree(1, &budget));
    const int nodes = root->NumNodes();
    if (nodes >= options_.min_nodes && nodes <= options_.max_nodes) {
      return root;
    }
  }
}

std::unique_ptr<PlanNode> RandomPlanGenerator::Mutate(const PlanNode& original,
                                                      double mutation_rate) {
  auto copy = original.Clone();
  copy->VisitMutable([&](PlanNode* node) {
    if (!rng_.Bernoulli(mutation_rate)) return;
    // Relabel within the same arity class so the tree stays grammatical.
    if (node->children().size() >= 2) {
      node->set_type(RandomJoinType());
    } else if (node->children().size() == 1) {
      node->set_type(RandomUnaryType());
    } else {
      node->set_type(RandomScanType());
    }
  });
  return copy;
}

// --- Foreign-plan ingestion -------------------------------------------------

util::StatusOr<IngestedPlan> IngestExplainText(
    const std::string& text, plan::IngestionPolicy policy,
    const plan::SanitizeLimits& limits) {
  plan::ParseExplainOptions options;
  options.policy = policy;
  util::StatusOr<plan::ParsedExplain> parsed = plan::ParseExplain(text, options);
  if (!parsed.ok()) return parsed.status();

  IngestedPlan out;
  out.plan.root = std::move(parsed->root);
  out.plan.benchmark = "foreign";
  out.stats = parsed->stats;
  out.warnings = std::move(parsed->warnings);
  if (policy == plan::IngestionPolicy::kStrict) {
    const util::Status valid = plan::ValidatePlan(*out.plan.root, limits);
    if (!valid.ok()) return valid;
  } else {
    plan::IngestionStats repairs = plan::SanitizePlan(out.plan.root.get(), limits);
    repairs.nodes = 0;  // the parser already counted the nodes
    out.stats.Merge(repairs);
  }
  return out;
}

util::StatusOr<IngestedPlan> IngestExplainFile(
    const std::string& path, plan::IngestionPolicy policy,
    const plan::SanitizeLimits& limits) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return util::NotFoundError("cannot open EXPLAIN file: " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  if (in.bad()) {
    return util::IoError("failed reading EXPLAIN file: " + path);
  }
  return IngestExplainText(text.str(), policy, limits);
}

// --- Adversarial tree mutation ---------------------------------------------

namespace {

std::vector<PlanNode*> CollectNodes(PlanNode* root) {
  std::vector<PlanNode*> nodes;
  std::vector<PlanNode*> stack = {root};
  while (!stack.empty()) {
    PlanNode* node = stack.back();
    stack.pop_back();
    nodes.push_back(node);
    for (const auto& child : node->children()) stack.push_back(child.get());
  }
  return nodes;
}

double HostileValue(util::Rng* rng) {
  static const double kValues[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -1.0,
      -1e30,
      1e300,
      5e15,
      0.0,
  };
  return kValues[rng->UniformInt(0, std::size(kValues) - 1)];
}

void PoisonProperties(plan::PlanProperties* p, util::Rng* rng) {
  double plan::PlanProperties::* const kTargets[] = {
      &plan::PlanProperties::actual_loops,
      &plan::PlanProperties::actual_rows,
      &plan::PlanProperties::plan_rows,
      &plan::PlanProperties::plan_width,
      &plan::PlanProperties::shared_read_blocks,
      &plan::PlanProperties::temp_written_blocks,
      &plan::PlanProperties::rows_removed_by_filter,
      &plan::PlanProperties::hash_buckets,
      &plan::PlanProperties::hash_batches,
      &plan::PlanProperties::sort_space_used_kb,
      &plan::PlanProperties::num_sort_keys,
      &plan::PlanProperties::peak_memory_kb,
      &plan::PlanProperties::startup_cost,
      &plan::PlanProperties::total_cost,
      &plan::PlanProperties::actual_startup_time_ms,
      &plan::PlanProperties::actual_total_time_ms,
  };
  const int hits = static_cast<int>(rng->UniformInt(1, 4));
  for (int h = 0; h < hits; ++h) {
    p->*kTargets[rng->UniformInt(0, std::size(kTargets) - 1)] =
        HostileValue(rng);
  }
}

}  // namespace

void CorruptPlan(PlanNode* root, util::Rng* rng, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    std::vector<PlanNode*> nodes = CollectNodes(root);
    PlanNode* victim =
        nodes[rng->UniformInt(0, static_cast<int64_t>(nodes.size()) - 1)];
    switch (rng->UniformInt(0, 5)) {
      case 0:
        PoisonProperties(&victim->props(), rng);
        break;
      case 1:  // scrambled operator-type bytes (out-of-vocabulary ids)
        victim->set_type(plan::OperatorType(
            static_cast<uint8_t>(rng->UniformInt(0, 255)),
            static_cast<uint8_t>(rng->UniformInt(0, 255)),
            static_cast<uint8_t>(rng->UniformInt(0, 255))));
        break;
      case 2: {  // out-of-range categorical codes
        plan::PlanProperties& p = victim->props();
        p.parent_relationship = static_cast<plan::ParentRelationship>(
            rng->UniformInt(-3, 200));
        p.join_kind = static_cast<plan::JoinKind>(rng->UniformInt(-3, 200));
        p.sort_method = static_cast<plan::SortMethod>(rng->UniformInt(-3, 200));
        p.aggregate_strategy =
            static_cast<plan::AggregateStrategy>(rng->UniformInt(-3, 200));
        p.scan_direction = static_cast<int>(rng->UniformInt(-100, 100));
        break;
      }
      case 3: {  // graft a pathologically deep unary chain
        const int depth = static_cast<int>(rng->UniformInt(50, 300));
        PlanNode* tip = victim;
        for (int d = 0; d < depth; ++d) {
          tip = tip->AddChild(plan::OperatorType::Parse("Materialize"));
        }
        break;
      }
      case 4: {  // fan-out explosion
        const int fan = static_cast<int>(rng->UniformInt(20, 64));
        for (int c = 0; c < fan; ++c) {
          victim->AddChild(plan::OperatorType::Parse("Scan-Seq"));
        }
        break;
      }
      default:
        victim->DropChildren();
        break;
    }
  }
}

}  // namespace qpe::data
