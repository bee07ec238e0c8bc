#ifndef QPE_PLAN_SERIALIZE_H_
#define QPE_PLAN_SERIALIZE_H_

#include <memory>
#include <string>

#include "plan/plan_node.h"
#include "util/status.h"

namespace qpe::plan {

// Plan <-> text round trip. Format is a compact s-expression; one node is
//   (op "Scan-Seq-NIL" :rel lineitem :plan_rows 6000 ... (op ...) (op ...))
// Only non-default properties are emitted. Used for dataset caching, golden
// files in tests, the examples, and the serving wire protocol.
//
// Parsing contract: a property value is read exactly as strtod reads the
// word (so inf, nan(...), hex, "+5" and "12abc" keep their strtod value),
// and a node nested deeper than kMaxPlanTextDepth levels is rejected with
// kDataLoss at the offset of its '(' instead of recursing without bound.
inline constexpr int kMaxPlanTextDepth = 1024;

std::string SerializePlanNode(const PlanNode& node);
std::string SerializePlan(const Plan& plan);

// Checked parsers: on malformed input the Status names the reason and the
// byte offset of the first error (e.g. "unknown property 'bogus' at offset
// 42"), so a corrupt corpus line is diagnosable instead of a bare nullopt.
util::StatusOr<std::unique_ptr<PlanNode>> ParsePlanNodeChecked(
    const std::string& text);
util::StatusOr<Plan> ParsePlanChecked(const std::string& text);

// Unchecked node parser: nullptr on malformed input, diagnostics dropped.
std::unique_ptr<PlanNode> ParsePlanNode(const std::string& text);

}  // namespace qpe::plan

#endif  // QPE_PLAN_SERIALIZE_H_
