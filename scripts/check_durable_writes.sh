#!/usr/bin/env bash
# One-file-layer lint: every artifact that must outlive the process is
# written through util::WriteFileAtomic (src/util/durable_file.cc), the one
# place that knows the temp-file + fsync + atomic-rename discipline. It
# fails when `std::ofstream`, `std::rename(` or `fsync(` appears anywhere
# else under src/ — a writer that bypasses the layer can leave a torn file
# behind a crash.
#
# Usage: scripts/check_durable_writes.sh
set -euo pipefail

cd "$(dirname "$0")/.."

allowed='^src/util/durable_file\.(h|cc):'
hits=$(grep -rnE 'std::ofstream|std::rename\(|fsync\(' src || true)
bad=$(grep -vE "$allowed" <<<"$hits" || true)
if [[ -n "$bad" ]]; then
  echo "check_durable_writes: file writes outside src/util/durable_file.cc" \
       "(use util::WriteFileAtomic):" >&2
  echo "$bad" >&2
  exit 1
fi
echo "check_durable_writes: OK (std::ofstream, std::rename and fsync only" \
     "in src/util/durable_file.cc)"
