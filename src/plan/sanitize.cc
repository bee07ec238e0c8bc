#include "plan/sanitize.h"

#include <cmath>
#include <cstddef>
#include <iterator>
#include <sstream>
#include <utility>
#include <vector>

#include "plan/taxonomy.h"

namespace qpe::plan {

namespace {

// Magnitude cap for every numeric property.
constexpr double kMaxAbs = 1e12;

// Every double-valued property is a count, size, or duration: finite,
// non-negative, bounded. One table drives both repair and validation.
struct DoubleField {
  const char* name;
  double PlanProperties::* member;
};

constexpr DoubleField kDoubleFields[] = {
    {"actual_rows", &PlanProperties::actual_rows},
    {"plan_rows", &PlanProperties::plan_rows},
    {"plan_width", &PlanProperties::plan_width},
    {"shared_hit_blocks", &PlanProperties::shared_hit_blocks},
    {"shared_read_blocks", &PlanProperties::shared_read_blocks},
    {"shared_dirtied_blocks", &PlanProperties::shared_dirtied_blocks},
    {"shared_written_blocks", &PlanProperties::shared_written_blocks},
    {"local_hit_blocks", &PlanProperties::local_hit_blocks},
    {"local_read_blocks", &PlanProperties::local_read_blocks},
    {"local_dirtied_blocks", &PlanProperties::local_dirtied_blocks},
    {"local_written_blocks", &PlanProperties::local_written_blocks},
    {"temp_read_blocks", &PlanProperties::temp_read_blocks},
    {"temp_written_blocks", &PlanProperties::temp_written_blocks},
    {"plan_buffers", &PlanProperties::plan_buffers},
    {"rows_removed_by_filter", &PlanProperties::rows_removed_by_filter},
    {"heap_blocks", &PlanProperties::heap_blocks},
    {"rows_removed_by_join_filter",
     &PlanProperties::rows_removed_by_join_filter},
    {"hash_buckets", &PlanProperties::hash_buckets},
    {"hash_batches", &PlanProperties::hash_batches},
    {"sort_space_used_kb", &PlanProperties::sort_space_used_kb},
    {"num_sort_keys", &PlanProperties::num_sort_keys},
    {"peak_memory_kb", &PlanProperties::peak_memory_kb},
    {"startup_cost", &PlanProperties::startup_cost},
    {"total_cost", &PlanProperties::total_cost},
    {"actual_startup_time_ms", &PlanProperties::actual_startup_time_ms},
    {"actual_total_time_ms", &PlanProperties::actual_total_time_ms},
};

// Categorical codes and their inclusive upper bound (lower bound 0).
struct EnumField {
  const char* name;
  int max_code;
};

int EnumCode(const PlanProperties& p, int index) {
  switch (index) {
    case 0: return static_cast<int>(p.parent_relationship);
    case 1: return static_cast<int>(p.join_kind);
    case 2: return static_cast<int>(p.sort_method);
    case 3: return static_cast<int>(p.aggregate_strategy);
    default: return p.scan_direction;
  }
}

void SetEnumCode(PlanProperties* p, int index, int code) {
  switch (index) {
    case 0: p->parent_relationship = static_cast<ParentRelationship>(code);
            break;
    case 1: p->join_kind = static_cast<JoinKind>(code); break;
    case 2: p->sort_method = static_cast<SortMethod>(code); break;
    case 3: p->aggregate_strategy = static_cast<AggregateStrategy>(code);
            break;
    default: p->scan_direction = code; break;
  }
}

constexpr EnumField kEnumFields[] = {
    {"parent_relationship", 5}, {"join_kind", 6},      {"sort_method", 4},
    {"aggregate_strategy", 4},  {"scan_direction", 1},  // |dir| <= 1
};

bool EnumInRange(int index, int code) {
  // scan_direction is the only signed categorical (-1 backward, +1 forward).
  const int lo = index == 4 ? -1 : 0;
  return code >= lo && code <= kEnumFields[index].max_code;
}

// Repairs one node's operator ids and properties; returns defect counts.
void SanitizeNode(PlanNode* node, IngestionStats* stats) {
  const Taxonomy& tax = Taxonomy::Get();
  OperatorType type = node->type();
  bool fixed_type = false;
  if (type.level1 >= tax.Level1Count()) {
    type.level1 = static_cast<uint8_t>(tax.unknown1());
    fixed_type = true;
  }
  if (type.level2 >= tax.Level2Count()) {
    type.level2 = static_cast<uint8_t>(tax.unknown2());
    fixed_type = true;
  }
  if (type.level3 >= tax.Level3Count()) {
    type.level3 = static_cast<uint8_t>(tax.unknown3());
    fixed_type = true;
  }
  if (fixed_type) {
    node->set_type(type);
    ++stats->unknown_operators;
  }

  PlanProperties& p = node->props();
  for (const DoubleField& field : kDoubleFields) {
    double& v = p.*(field.member);
    if (!std::isfinite(v)) {
      v = 0;
      ++stats->nonfinite_values;
    } else if (v < 0) {
      v = 0;
      ++stats->negative_values;
    } else if (v > kMaxAbs) {
      v = kMaxAbs;
      ++stats->out_of_range_values;
    }
  }
  for (size_t e = 0; e < std::size(kEnumFields); ++e) {
    const int code = EnumCode(p, static_cast<int>(e));
    if (!EnumInRange(static_cast<int>(e), code)) {
      SetEnumCode(&p, static_cast<int>(e), 0);
      ++stats->invalid_enums;
    }
  }
  // Never-executed / corrupt actuals degrade to estimate-only: the encoders
  // then see the optimizer's cardinality instead of a bogus zero.
  if (!std::isfinite(p.actual_loops) || p.actual_loops < 1) {
    p.actual_loops = 1;
    if (p.actual_rows == 0 && p.actual_total_time_ms == 0) {
      p.actual_rows = p.plan_rows;
    }
    ++stats->missing_actuals;
  } else if (p.actual_loops > kMaxAbs) {
    p.actual_loops = kMaxAbs;
    ++stats->out_of_range_values;
  }
}

}  // namespace

void IngestionStats::Merge(const IngestionStats& other) {
  nodes += other.nodes;
  unknown_operators += other.unknown_operators;
  nonfinite_values += other.nonfinite_values;
  negative_values += other.negative_values;
  out_of_range_values += other.out_of_range_values;
  invalid_enums += other.invalid_enums;
  missing_actuals += other.missing_actuals;
  truncated_depth += other.truncated_depth;
  truncated_children += other.truncated_children;
  unparsed_lines += other.unparsed_lines;
  orphan_nodes += other.orphan_nodes;
}

std::string IngestionStats::ToString() const {
  std::ostringstream out;
  out << "ingestion report: " << nodes << " node(s), " << TotalDefects()
      << " defect(s)";
  if (TotalDefects() == 0) return out.str();
  const std::pair<const char*, int> classes[] = {
      {"unknown operators", unknown_operators},
      {"non-finite values", nonfinite_values},
      {"negative values", negative_values},
      {"out-of-range values", out_of_range_values},
      {"invalid categorical codes", invalid_enums},
      {"missing actuals (estimate-only)", missing_actuals},
      {"depth-cap truncations", truncated_depth},
      {"fan-out truncations", truncated_children},
      {"unparsed lines", unparsed_lines},
      {"orphan root-level nodes", orphan_nodes},
  };
  for (const auto& [name, count] : classes) {
    if (count > 0) out << "\n  " << name << ": " << count;
  }
  return out.str();
}

IngestionStats SanitizePlan(PlanNode* root, const SanitizeLimits& limits) {
  IngestionStats stats;
  if (root == nullptr) return stats;
  // Pre-order walk with an explicit stack; `budget` reserves slots for
  // admitted children so the sanitized tree never exceeds max_nodes.
  int budget = limits.max_nodes - 1;
  std::vector<std::pair<PlanNode*, int>> stack = {{root, 1}};
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    ++stats.nodes;
    SanitizeNode(node, &stats);

    if (depth >= limits.max_depth && !node->children().empty()) {
      node->DropChildren();
      ++stats.truncated_depth;
      continue;
    }
    const int want = static_cast<int>(node->children().size());
    int admit = want;
    if (admit > limits.max_children) admit = limits.max_children;
    if (admit > budget) admit = budget < 0 ? 0 : budget;
    if (admit < want) {
      node->TruncateChildren(static_cast<size_t>(admit));
      stats.truncated_children += want - admit;
    }
    budget -= admit;
    // Push in reverse so the leftmost child is sanitized (and budgeted)
    // first — the truncation point is then independent of stack effects.
    for (int i = admit - 1; i >= 0; --i) {
      stack.emplace_back(node->children()[i].get(), depth + 1);
    }
  }
  return stats;
}

util::Status ValidatePlan(const PlanNode& root, const SanitizeLimits& limits) {
  const Taxonomy& tax = Taxonomy::Get();
  int index = 0;
  int total = 0;
  std::vector<std::pair<const PlanNode*, int>> stack = {{&root, 1}};
  auto fail = [&](const std::string& what) {
    return util::FailedPreconditionError("plan node #" + std::to_string(index) +
                                         ": " + what);
  };
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    index = total++;
    if (total > limits.max_nodes) {
      return util::FailedPreconditionError(
          "plan exceeds the node budget of " +
          std::to_string(limits.max_nodes));
    }
    if (depth > limits.max_depth) {
      return fail("exceeds the depth cap of " +
                  std::to_string(limits.max_depth));
    }
    const OperatorType type = node->type();
    if (type.level1 >= tax.Level1Count() || type.level2 >= tax.Level2Count() ||
        type.level3 >= tax.Level3Count()) {
      return fail("operator sub-type id out of taxonomy range");
    }
    const PlanProperties& p = node->props();
    for (const DoubleField& field : kDoubleFields) {
      const double v = p.*(field.member);
      if (!std::isfinite(v)) {
        return fail(std::string(field.name) + " is non-finite");
      }
      if (v < 0) {
        return fail(std::string(field.name) + " is negative (" +
                    std::to_string(v) + ")");
      }
      if (v > kMaxAbs) {
        return fail(std::string(field.name) + " exceeds the magnitude cap (" +
                    std::to_string(v) + ")");
      }
    }
    for (size_t e = 0; e < std::size(kEnumFields); ++e) {
      const int code = EnumCode(p, static_cast<int>(e));
      if (!EnumInRange(static_cast<int>(e), code)) {
        return fail(std::string(kEnumFields[e].name) +
                    " has an invalid categorical code (" +
                    std::to_string(code) + ")");
      }
    }
    if (!std::isfinite(p.actual_loops) || p.actual_loops < 1 ||
        p.actual_loops > kMaxAbs) {
      return fail("actual_loops out of range (" +
                  std::to_string(p.actual_loops) + ")");
    }
    if (static_cast<int>(node->children().size()) > limits.max_children) {
      return fail("fan-out exceeds the cap of " +
                  std::to_string(limits.max_children));
    }
    for (auto it = node->children().rbegin(); it != node->children().rend();
         ++it) {
      stack.emplace_back(it->get(), depth + 1);
    }
  }
  return util::OkStatus();
}

}  // namespace qpe::plan
