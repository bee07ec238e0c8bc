#ifndef QPE_DATA_PLAN_CORPUS_H_
#define QPE_DATA_PLAN_CORPUS_H_

#include <memory>
#include <string>
#include <vector>

#include "plan/plan_node.h"
#include "plan/sanitize.h"
#include "util/rng.h"
#include "util/status.h"

namespace qpe::data {

// Synthetic stand-in for the paper's crowdsourced explain.depesz.com corpus:
// a generator of structurally diverse random plan trees over the full
// operator taxonomy. Trees are grammatical (scans at the leaves, joins
// binary, unary shaping operators above), with sizes distributed from tiny
// OLTP lookups to deep analytic plans; plans above `max_nodes` are pruned
// away, mirroring the paper's >200-node cut.
struct CorpusOptions {
  int min_nodes = 3;
  int max_nodes = 200;
};

class RandomPlanGenerator {
 public:
  explicit RandomPlanGenerator(util::Rng rng, CorpusOptions options = {})
      : rng_(rng), options_(options) {}

  std::unique_ptr<plan::PlanNode> Generate();

  // A structural mutation of an existing plan (relabel some operators, drop
  // or add a subtree); used to create related plan pairs with high Smatch.
  std::unique_ptr<plan::PlanNode> Mutate(const plan::PlanNode& original,
                                         double mutation_rate = 0.2);

 private:
  std::unique_ptr<plan::PlanNode> GenerateSubtree(int depth, int* budget);
  plan::OperatorType RandomScanType();
  plan::OperatorType RandomJoinType();
  plan::OperatorType RandomUnaryType();

  util::Rng rng_;
  CorpusOptions options_;
};

// --- Foreign-plan ingestion -------------------------------------------------

// A foreign plan that survived ingestion: the parsed (and, under the lenient
// policy, sanitized) tree plus the full defect accounting.
struct IngestedPlan {
  plan::Plan plan;
  plan::IngestionStats stats;
  util::WarningLog warnings;
};

// One-stop ingestion of PostgreSQL-style EXPLAIN text, the entry point the
// paper's crowdsourced corpus would flow through (§4):
//   lenient — ParseExplain + SanitizePlan; every accepted plan is safe for
//             every encoder (finite features, in-vocabulary ids, capped
//             shape) and `stats` says exactly how degraded it was.
//   strict  — ParseExplain(strict) + ValidatePlan; the first defect rejects
//             the whole input with a descriptive Status, never a partial
//             tree.
util::StatusOr<IngestedPlan> IngestExplainText(
    const std::string& text,
    plan::IngestionPolicy policy = plan::IngestionPolicy::kLenient,
    const plan::SanitizeLimits& limits = {});

// Reads `path` and ingests its contents; NotFound/Io errors pass through.
util::StatusOr<IngestedPlan> IngestExplainFile(
    const std::string& path,
    plan::IngestionPolicy policy = plan::IngestionPolicy::kLenient,
    const plan::SanitizeLimits& limits = {});

// --- Adversarial tree mutation ---------------------------------------------

// Deterministically corrupts a plan tree in place for robustness fuzzing:
// non-finite/negative/huge property values, scrambled operator-type bytes,
// out-of-range categorical codes, grafted deep chains, fan-out explosions,
// and dropped subtrees. Complements util::MutateBytes (which attacks the
// EXPLAIN *text*); this attacks the in-memory tree that bypasses parsing.
void CorruptPlan(plan::PlanNode* root, util::Rng* rng, int rounds = 4);

}  // namespace qpe::data

#endif  // QPE_DATA_PLAN_CORPUS_H_
