#ifndef QPE_DATA_DATASET_IO_H_
#define QPE_DATA_DATASET_IO_H_

#include <string>
#include <vector>

#include "simdb/workload_runner.h"
#include "util/status.h"

namespace qpe::data {

// Disk persistence for executed-query datasets (the analogue of the paper's
// uploaded plan repository): one record per line —
//   (record :latency <ms> :template <i> :instance <i> :config v1,...,v13 <plan s-expr>)
// Plans round-trip through plan/serialize.h. Saves go through
// util::WriteFileAtomic (fault sites "dataset.save.*"), so a failed or
// interrupted save leaves the previous file intact.

util::Status SaveExecutedQueriesStatus(
    const std::vector<simdb::ExecutedQuery>& records, const std::string& path);

// Parses the whole file or reports the 1-based line number and reason of
// the first malformed record, e.g.
//   "dataset.txt line 17: missing ':config' token".
util::StatusOr<std::vector<simdb::ExecutedQuery>> LoadExecutedQueriesChecked(
    const std::string& path);

}  // namespace qpe::data

#endif  // QPE_DATA_DATASET_IO_H_
