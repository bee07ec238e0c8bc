#ifndef QPE_PLAN_SANITIZE_H_
#define QPE_PLAN_SANITIZE_H_

#include <string>

#include "plan/plan_node.h"
#include "util/status.h"

namespace qpe::plan {

// Ingestion boundary for foreign plans (the paper's crowdsourced
// explain.depesz corpus, §4): every plan that did not come out of our own
// simulator passes through SanitizePlan before any encoder sees it, so that
// malformed trees degrade gracefully instead of crashing a kernel or
// yielding a silent NaN embedding.

// How the ingestion boundary treats defects: lenient repairs them (clamp,
// substitute, truncate) and counts each repair; strict rejects the plan at
// the first defect with a descriptive Status.
enum class IngestionPolicy { kLenient = 0, kStrict };

// Structural and numeric caps. Trees beyond them are truncated
// *deterministically* (keep the first children in tree order) so the same
// input always yields the same sanitized plan.
struct SanitizeLimits {
  int max_depth = 64;       // nodes deeper than this lose their children
  int max_children = 16;    // per-node fan-out cap
  int max_nodes = 512;      // whole-tree budget (paper prunes >200-node plans)
};

// Per-defect-class counters, accumulated across parsing (ParseExplain),
// sanitization (SanitizePlan), and featurization (data::NodeFeatures).
struct IngestionStats {
  int nodes = 0;               // nodes inspected
  int unknown_operators = 0;   // names mapped to the UNKNOWN sub-type
  int nonfinite_values = 0;    // NaN/Inf properties zeroed
  int negative_values = 0;     // negative-where-count properties clamped to 0
  int out_of_range_values = 0; // |v| > 1e12 clamped to the cap
  int invalid_enums = 0;       // categorical codes outside the enum range
  int missing_actuals = 0;     // nodes degraded to estimate-only features
  int truncated_depth = 0;     // subtrees dropped at the depth cap
  int truncated_children = 0;  // children dropped at the fan-out/node caps
  int unparsed_lines = 0;      // EXPLAIN lines skipped by the lenient parser
  int orphan_nodes = 0;        // extra root-level nodes grafted under the root

  int TotalDefects() const {
    return unknown_operators + nonfinite_values + negative_values +
           out_of_range_values + invalid_enums + missing_actuals +
           truncated_depth + truncated_children + unparsed_lines +
           orphan_nodes;
  }

  void Merge(const IngestionStats& other);

  // Human-readable defect report ("ingestion report: 3 defect(s) ...").
  std::string ToString() const;
};

// Repairs a plan tree in place and reports what was repaired:
//   - non-finite numeric properties -> 0            (nonfinite_values)
//   - negative count/size properties -> 0           (negative_values)
//   - |value| above 1e12 -> 1e12                    (out_of_range_values)
//   - categorical codes outside their enum -> 0     (invalid_enums)
//   - actual_loops < 1 -> estimate-only degradation (missing_actuals)
//   - depth/fan-out/node-budget overflow -> deterministic truncation
// Iterative (never recurses), so adversarially deep trees are safe.
IngestionStats SanitizePlan(PlanNode* root, const SanitizeLimits& limits = {});

// Strict-mode validation: OK iff SanitizePlan would be a no-op. The error
// message names the first offending node (pre-order index), property, and
// value. Never mutates the tree.
util::Status ValidatePlan(const PlanNode& root,
                          const SanitizeLimits& limits = {});

}  // namespace qpe::plan

#endif  // QPE_PLAN_SANITIZE_H_
