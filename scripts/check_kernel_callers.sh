#!/usr/bin/env bash
# Kernel-table lint: every entry of nn::simd::Kernels (src/nn/simd.h) must
# earn its place and be bound once. It fails when an entry
#   - has no caller under src/ outside the dispatch code itself
#     (src/nn/simd*): a kernel only tests or benches reach is dead weight
#     in every ISA table; or
#   - is not bound exactly once in MakeKernels (src/nn/simd_kernels_inl.h),
#     the one template that builds every level's table. An unbound entry
#     would be a null pointer at every level.
#
# A caller is a member access `.entry` or `->entry` outside a // comment.
#
# Usage: scripts/check_kernel_callers.sh
set -euo pipefail

cd "$(dirname "$0")/.."

header=src/nn/simd.h
inl=src/nn/simd_kernels_inl.h

entries=$(sed -n '/^struct Kernels {/,/^};/p' "$header" |
  grep -oE '\(\*[a-z0-9_]+\)' | tr -d '(*)' || true)
if [[ -z "$entries" ]]; then
  echo "check_kernel_callers: no entries found in struct Kernels ($header)" >&2
  exit 1
fi

bindings=$(sed -n '/^constexpr Kernels MakeKernels(/,/^}/p' "$inl" |
  grep -oE '^ *\.[a-z0-9_]+ =' | tr -d ' .=' || true)
uses=$(grep -rnE '(\.|->)[a-z0-9_]+' src | grep -v '^src/nn/simd' |
  cut -d: -f3- | sed 's#//.*##' || true)

fail=0
count=0
for e in $entries; do
  count=$((count + 1))
  callers=$(grep -cE "(\.|->)${e}\b" <<<"$uses" || true)
  if [[ "$callers" -eq 0 ]]; then
    echo "check_kernel_callers: Kernels::$e has no caller under src/" \
         "outside src/nn/simd*" >&2
    fail=1
  fi
  bound=$(grep -cxF "$e" <<<"$bindings" || true)
  if [[ "$bound" -ne 1 ]]; then
    echo "check_kernel_callers: Kernels::$e is bound $bound times in" \
         "MakeKernels ($inl), expected 1" >&2
    fail=1
  fi
done
if [[ "$fail" -ne 0 ]]; then
  exit 1
fi
echo "check_kernel_callers: OK ($count entries, each called and bound once)"
