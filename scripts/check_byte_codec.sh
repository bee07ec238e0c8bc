#!/usr/bin/env bash
# One-codec lint: every binary field the library persists or sends — module
# files, framed-file headers and payloads, wire frames — is encoded with the
# util::Put* helpers and decoded with util::PayloadReader
# (src/util/bytes.{h,cc}). It fails when `reinterpret_cast<char*>`,
# `reinterpret_cast<const char*>` or `memcpy(&` appears anywhere else under
# src/ — the marks of a hand-rolled codec that skips the reader's bounds
# checks.
#
# Usage: scripts/check_byte_codec.sh
set -euo pipefail

cd "$(dirname "$0")/.."

allowed='^src/util/bytes\.(h|cc):'
hits=$(grep -rnE 'reinterpret_cast<(const )?char\*>|memcpy\(&' src || true)
bad=$(grep -vE "$allowed" <<<"$hits" || true)
if [[ -n "$bad" ]]; then
  echo "check_byte_codec: raw byte copies outside src/util/bytes.{h,cc}" \
       "(use util::Put* and util::PayloadReader):" >&2
  echo "$bad" >&2
  exit 1
fi
echo "check_byte_codec: OK (raw byte casts and memcpy(& only in" \
     "src/util/bytes.{h,cc})"
