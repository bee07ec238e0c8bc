#!/usr/bin/env bash
# Kernel-table lint: every entry of nn::simd::Kernels (src/nn/simd.h) must
# earn its place and be bound once. It fails when an entry
#   - has no caller under src/ outside the dispatch code itself
#     (src/nn/simd*): a kernel only tests or benches reach is dead weight
#     in every ISA table; or
#   - is not bound exactly once in MakeKernels (src/nn/simd_kernels_inl.h),
#     the one template that builds every level's table. An unbound entry
#     would be a null pointer at every level.
# It also fails when MakeKernels is declared, or called anywhere under
# src/, with anything but its two arguments (level, name): a third one
# would be a kernel body passed in per ISA instead of bound from the
# shared template.
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

# Every MakeKernels declaration and call under src/ with its argument
# count, taken at the top level of its parentheses (commas inside a nested
# (), [] or {} or a string do not count). Comments are stripped first.
arities=$(grep -rlF 'MakeKernels' src | sort | while read -r f; do
  sed 's#//.*##' "$f" | tr '\n' ' ' | awk -v file="$f" '{
    s = $0
    while ((i = index(s, "MakeKernels")) > 0) {
      s = substr(s, i + 11)
      j = 1
      if (substr(s, 1, 1) == "<") {
        while (j <= length(s) && substr(s, j, 1) != ">") j++
        j++
      }
      while (substr(s, j, 1) == " ") j++
      if (substr(s, j, 1) != "(") continue
      depth = 0; args = 0; blank = 1; quoted = 0
      for (k = j + 1; k <= length(s); k++) {
        c = substr(s, k, 1)
        if (quoted) { if (c == "\"") quoted = 0; continue }
        if (c == "\"") { quoted = 1; blank = 0; continue }
        if (c == "(" || c == "[" || c == "{") depth++
        else if (c == ")" || c == "]" || c == "}") {
          if (depth == 0) break
          depth--
        } else if (c == "," && depth == 0) args++
        if (c != " ") blank = 0
      }
      if (!blank) args++
      print file ": " args " argument(s): MakeKernels" substr(s, 1, k)
      s = substr(s, k)
    }
  }'
done)
if [[ -z "$arities" ]]; then
  echo "check_kernel_callers: no MakeKernels declaration found under src/" >&2
  exit 1
fi
while IFS= read -r line; do
  if [[ "$line" != *": 2 argument(s): "* ]]; then
    echo "check_kernel_callers: MakeKernels takes only (level, name):" \
         "$line" >&2
    fail=1
  fi
done <<<"$arities"
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
echo "check_kernel_callers: OK ($count entries, each called and bound once;" \
     "MakeKernels takes (level, name) at each of its" \
     "$(wc -l <<<"$arities") sites)"
