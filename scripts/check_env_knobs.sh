#!/usr/bin/env bash
# No-new-knobs lint: fails when library code under src/ reads an
# environment variable other than the four documented ones — QPE_SIMD
# (kernel level), QPE_THREADS (pool size), QPE_FAULT (fault injection) and
# QPE_FUZZ_ITERS (fuzz sweep length). A behaviour worth choosing belongs in
# a config struct or a test-local type, not in a process-wide env switch.
#
# Every getenv call must name one of them as a string literal; a computed
# name cannot be checked and fails too.
#
# Usage: scripts/check_env_knobs.sh
set -euo pipefail

cd "$(dirname "$0")/.."

allowed='QPE_SIMD|QPE_THREADS|QPE_FAULT|QPE_FUZZ_ITERS'
calls=$(grep -rnoE '(secure_)?getenv[[:space:]]*\([^)]*\)?' src || true)
bad=$(grep -vE ":(secure_)?getenv\(\"(${allowed})\"\)$" <<<"$calls" || true)
if [[ -n "$bad" ]]; then
  echo "check_env_knobs: environment reads outside {${allowed//|/, }}:" >&2
  echo "$bad" >&2
  exit 1
fi
echo "check_env_knobs: OK ($(grep -c . <<<"$calls") getenv calls, all allowed)"
