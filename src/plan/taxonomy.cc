#include "plan/taxonomy.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>

namespace qpe::plan {

Taxonomy::Level::Level(std::vector<std::string> level_names)
    : names(std::move(level_names)) {
  ids.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    ids.emplace(names[i], static_cast<int>(i));
  }
  unknown = Find("UNKNOWN");
  std::vector<int> order(names.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [this](int a, int b) { return names[a] < names[b]; });
  for (size_t r = 0; r < order.size(); ++r) {
    rank[order[r]] = static_cast<uint8_t>(r);
  }
  for (size_t id = names.size(); id < rank.size(); ++id) {
    rank[id] = rank[unknown];
  }
}

int Taxonomy::Level::Find(std::string_view name) const {
  const auto it = ids.find(name);
  return it == ids.end() ? -1 : it->second;
}

// Level 1 is paper Table 2 plus Filter from Figure 1 and the four specials.
// UNKNOWN tokens are appended last so every pre-existing id is stable.
Taxonomy::Taxonomy()
    : level1_({"NIL",        "Aggregate", "Append",    "Count",     "Delete",
               "Enum",       "Filter",    "Gather",    "Group",     "GroupAggregate",
               "Hash",       "Insert",    "Intersect", "Join",      "Limit",
               "LockRows",   "Loop",      "Materialize", "ModifyTable", "Network",
               "Result",     "Scan",      "Sequence",  "SetOp",     "Sort",
               "Union",      "Unique",    "Update",    "Window",    "WindowAgg",
               "BR_OPEN",    "BR_CLOSE",  "CLS",       "SEP",       "UNKNOWN"}),
      level2_({"NIL",   "And",      "CTE",    "Except", "Exists", "Foreign",
               "Hash",  "Heap",     "Index",  "IndexOnly", "LoopHash", "Merge",
               "Nested", "Or",      "Query",  "Quick",  "Seq",    "SetOp",
               "Subquery", "Table", "WorkTable", "UNKNOWN"}),
      level3_({"NIL",  "Anti",    "Bitmap",  "Full",     "Inner", "Left",
               "Outer", "Parallel", "Partial", "Partition", "Right", "Semi",
               "XN",    "UNKNOWN"}) {
  br_open_ = level1_.Find("BR_OPEN");
  br_close_ = level1_.Find("BR_CLOSE");
  cls_ = level1_.Find("CLS");
  sep_ = level1_.Find("SEP");
}

const Taxonomy& Taxonomy::Get() {
  static const Taxonomy* const kInstance = new Taxonomy();
  return *kInstance;
}

OperatorType OperatorType::FromNames(std::string_view l1, std::string_view l2,
                                     std::string_view l3) {
  const Taxonomy& tax = Taxonomy::Get();
  return OperatorType(
      static_cast<uint8_t>(l1.empty() ? 0 : tax.Level1Id(l1)),
      static_cast<uint8_t>(l2.empty() ? 0 : tax.Level2Id(l2)),
      static_cast<uint8_t>(l3.empty() ? 0 : tax.Level3Id(l3)));
}

OperatorType OperatorType::Unknown() {
  const Taxonomy& tax = Taxonomy::Get();
  return OperatorType(static_cast<uint8_t>(tax.unknown1()), 0, 0);
}

OperatorType OperatorType::Parse(std::string_view token) {
  std::string_view parts[3];
  for (int part = 0; part < 3; ++part) {
    const size_t dash = token.find('-');
    parts[part] = token.substr(0, dash);
    if (dash == std::string_view::npos) break;
    token.remove_prefix(dash + 1);
  }
  return FromNames(parts[0], parts[1], parts[2]);
}

std::string OperatorType::ToString(bool full) const {
  const Taxonomy& tax = Taxonomy::Get();
  std::ostringstream oss;
  oss << tax.Level1Name(level1);
  if (full || level2 != 0 || level3 != 0) oss << "-" << tax.Level2Name(level2);
  if (full || level3 != 0) oss << "-" << tax.Level3Name(level3);
  return oss.str();
}

// Comparing "A1-A2-A3" with "B1-B2-B3" as strings is comparing the names
// level by level: no name contains a character at or below '-', so when A1
// is a proper prefix of B1 the '-' after A1 sorts below B1's next character
// exactly as A1 < B1 does, and equal names defer to the next level. Hence
// the rank tuples order operators as their full tokens do.
bool OperatorType::operator<(const OperatorType& other) const {
  const Taxonomy& tax = Taxonomy::Get();
  const int a1 = tax.Level1Rank(level1);
  const int b1 = tax.Level1Rank(other.level1);
  if (a1 != b1) return a1 < b1;
  const int a2 = tax.Level2Rank(level2);
  const int b2 = tax.Level2Rank(other.level2);
  if (a2 != b2) return a2 < b2;
  return tax.Level3Rank(level3) < tax.Level3Rank(other.level3);
}

OperatorGroup GroupOf(const OperatorType& type) {
  const Taxonomy& tax = Taxonomy::Get();
  const std::string& l1 = tax.Level1Name(type.level1);
  const std::string& l2 = tax.Level2Name(type.level2);
  if (l1 == "Scan") return OperatorGroup::kScan;
  if (l1 == "Join") return OperatorGroup::kJoin;
  if (l1 == "Loop" && l2 == "Nested") return OperatorGroup::kJoin;
  if (l1 == "Sort") return OperatorGroup::kSort;
  if (l1 == "Aggregate" || l1 == "Group" || l1 == "GroupAggregate" ||
      l1 == "WindowAgg") {
    return OperatorGroup::kAggregate;
  }
  return OperatorGroup::kOther;
}

const char* GroupName(OperatorGroup group) {
  switch (group) {
    case OperatorGroup::kScan:
      return "Scan";
    case OperatorGroup::kJoin:
      return "Join";
    case OperatorGroup::kSort:
      return "Sort";
    case OperatorGroup::kAggregate:
      return "Aggregate";
    case OperatorGroup::kOther:
      return "Other";
  }
  return "Unknown";
}

}  // namespace qpe::plan
