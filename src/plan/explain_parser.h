#ifndef QPE_PLAN_EXPLAIN_PARSER_H_
#define QPE_PLAN_EXPLAIN_PARSER_H_

#include <memory>
#include <string>

#include "plan/plan_node.h"
#include "plan/sanitize.h"
#include "util/status.h"

namespace qpe::plan {

// Inverse of Explain(): parses PostgreSQL-style indented
// `EXPLAIN (ANALYZE, BUFFERS)` text back into a PlanNode tree.
//
//   Sort  (cost=98.20..98.20 rows=13 width=64) (actual time=12.400..12.500 rows=11 loops=1)
//     Sort Method: quicksort  Memory: 25kB
//     ->  Hash Join  (cost=0.40..91.10 rows=13 width=64) (actual ...)
//           ->  Seq Scan on lineitem  (...)
//
// Guarantees:
//   - For text produced by our own Explain(), the round trip
//     Explain -> ParseExplain -> Explain is byte-identical.
//   - Foreign plans (crowdsourced EXPLAIN ANALYZE output, QPE §4) are
//     ingested gracefully: operator names outside the taxonomy map to the
//     UNKNOWN sub-type, missing actual clauses degrade to estimate-only,
//     and unparseable detail lines are skipped — each defect is counted in
//     IngestionStats and described in the warning log with its line/column.
//   - Strict policy rejects the input at the first defect with a Status
//     carrying "line L, col C: reason"; no partial tree is ever returned.
struct ParseExplainOptions {
  IngestionPolicy policy = IngestionPolicy::kLenient;
};

struct ParsedExplain {
  std::unique_ptr<PlanNode> root;
  IngestionStats stats;       // parse-side defect counts
  util::WarningLog warnings;  // one entry per repaired defect
};

util::StatusOr<ParsedExplain> ParseExplain(
    const std::string& text, const ParseExplainOptions& options = {});

}  // namespace qpe::plan

#endif  // QPE_PLAN_EXPLAIN_PARSER_H_
