#!/usr/bin/env bash
# Dead-declaration lint: the API and the knobs a reader sees are the ones
# the program uses. It fails on
#   - a function or method declared in a header under src/ whose name
#     appears nowhere under src/, bench/, examples/ or qpebench/ outside
#     declarations and definitions: code only tests reach is dead weight;
#   - a field with a default initializer in a *Config, *Options or *Limits
#     struct under src/ that nothing under src/, bench/, examples/,
#     qpebench/ or tests/ assigns: a value no caller sets is a constant,
#     and belongs as a named constexpr in the file that reads it;
#   - an allowlist entry below that is no longer declared, or that now
#     has a production use or an assignment: the list cannot rot.
#
# The match is by name, after // comments, string and char literals are
# stripped. A declaration or definition is a line of the form
# `<return type> [Class::]name(`; every other occurrence of the name is a
# use. An assignment is `.field =` or `->field =` (an element's
# `.field[i] =` and a compound `+=` too) or `&x.field` (a flag parser's
# output pointer). A name that a live
# function or field shares with a dead one hides the dead one, so the
# lint can miss dead code but never flags live code.
#
# Usage: scripts/check_dead_declarations.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# One name per line, then `# reason`. Each entry keeps a declaration that
# only tests call, or a field that only its default sets.
allowlist=$(cat <<'EOF'
ForceLevel            # simd test seam: pins the kernel level per test
InstallTable          # simd test seam: installs a kernel table per test
SetEnabled            # TensorArena test seam: compares pooled and heap runs
RecyclingEnabled      # TensorArena test seam: reads the recycling switch
ResetShutdownSignalHandler  # socket test seam: re-arms SIGTERM between tests
ClearAdaptation       # drift test seam: drops a staged adaptation
MutateBytes           # fuzz support: the seeded byte mutator of fuzz tests
FuzzIterationsFromEnv # fuzz support: reads QPE_FUZZ_ITERS for fuzz tests
CorruptPlan           # fuzz support: seeded plan corruption for ingestion
Contains              # invariant observer: EmbeddingCache membership
TotalQueued           # invariant observer: AdmissionController queue bound
tokens_at             # invariant observer: TokenBucket refill arithmetic
FillRatio             # invariant observer: BloomFilter saturation
InParallelRegion      # invariant observer: no nested ThreadPool fan-out
input_scales          # invariant observer: QuantizedPlanEncoder calibration
num_quantized_sites   # invariant observer: QuantizedPlanEncoder site count
LoadModuleStatus      # persistence inverse of SaveModule
SaveToDirectory       # persistence: EncoderSuite save
LoadFromDirectory     # persistence inverse of SaveToDirectory
FeaturizerConfig      # persistence: EncoderSuite featurizer round trip
Template              # invariant observer: a workload's template specs
Transpose             # reference oracle: the op-chain attention in tests
WorkloadEmbedding     # the paper's workload-level embedding
EOF
)

ident='[A-Za-z_][A-Za-z0-9_]*'
# `<prefix> [Class::]name(` where the prefix is a return type with its
# specifiers (and an optional one-line template head). Group 1 is the
# prefix, group 4 the name, group 5 the opening parenthesis.
decl="^([[:space:]]*(template[[:space:]]*<[^;{}]*>[[:space:]]*)?"
decl+="[A-Za-z_][][A-Za-z0-9_:<>,*&[:space:]]*[A-Za-z0-9_>*&][[:space:]]+"
decl+="[*&]*)(${ident}::)*(${ident})([[:space:]]*\\()"
# A statement that starts with one of these is a use, never a declaration.
not_decl='^[[:space:]]*(return|else|throw|new|delete|case|co_return|goto)([^A-Za-z0-9_]|$)'
# Keywords that the declaration pattern mistakes for a name (`if (`).
keywords='if|for|while|switch|return|sizeof|alignof|decltype|static_assert|operator|defined'

sources() {
  find "$@" \( -name '.*' -o -name 'build*' \) -prune -o -type f \
    \( -name '*.h' -o -name '*.cc' -o -name '*.cpp' \) -print | sort
}

# Strips string literals, // comments and char literals.
strip() {
  sed -E -e 's/"([^"\\]|\\.)*"/""/g' -e 's#//.*##' \
    -e "s/'([^'\\\\]|\\\\.)'/''/g" "$@"
}

# --- Functions and methods declared in src/ headers. -------------------
declared=$(sources src | grep '\.h$' | while read -r f; do
  strip "$f" | grep -nE "$decl" | grep -vE "^[0-9]+:${not_decl#^}" |
    sed -E "s/^([0-9]+):${decl#^}.*/\\5 ${f//\//\\/}:\\1/" || true
done | grep -vE "^(${keywords}) " | sort -u -k1,1 || true)
if [[ -z "$declared" ]]; then
  echo "check_dead_declarations: no declarations found under src/" >&2
  exit 1
fi

# Every identifier under src/ bench/ examples/ qpebench/ that is not the
# name of a declaration or definition, with its count.
uses=$(sources src bench examples qpebench | xargs cat | strip |
  sed -E "/${not_decl}/!s/${decl}/\\1\\5/" |
  grep -oE "$ident" | sort | uniq -c | awk '{ print $2, $1 }')

# --- Defaulted fields of *Config / *Options / *Limits structs. ---------
fields=$(sources src | while read -r f; do
  strip "$f" | awk -v file="$f" '
    function count(s, c,   t) { t = s; return gsub(c, "", t) }
    depth == 0 && /^[ \t]*struct [A-Za-z0-9_]*(Config|Options|Limits)[ \t]*(final[ \t]*)?\{/ {
      name = $0
      sub(/^[ \t]*struct /, "", name); sub(/[ \t{].*/, "", name)
      depth = count($0, "{") - count($0, "}")
      next
    }
    depth > 0 {
      if (depth == 1 && $0 !~ /^[ \t]*(static|using|friend|return)[ \t]/ &&
          match($0, /^[^(=;{}]*[A-Za-z0-9_][ \t]*(=[^=]|\{)/)) {
        head = substr($0, 1, RLENGTH)
        sub(/[ \t]*(=.|\{)$/, "", head)
        n = split(head, words, /[^A-Za-z0-9_]+/)
        while (n > 0 && words[n] == "") n--
        if (n > 1) print words[n], name "::" words[n], file ":" NR
      }
      depth += count($0, "{") - count($0, "}")
    }'
done | sort -u -k1,1 -k2,2)

corpus=$(sources src bench examples qpebench tests | xargs cat | strip)
assigned=$({
  grep -oE "(\\.|->)${ident}(\\[[^]]*\\])*[[:space:]]*([-+*/%|&^]|<<|>>)?=([^=]|$)" \
    <<<"$corpus" | sed -E 's/^(\.|->)//' | grep -oE "^${ident}" || true
  grep -oE "&${ident}((\\.|->)${ident})+" <<<"$corpus" |
    grep -oE "${ident}$" || true
} | sort -u)

fail=0
allowed=$(sed -E 's/[[:space:]]*#.*//' <<<"$allowlist" | grep . || true)
while read -r entry; do
  reason=$(grep -E "^${entry}([[:space:]]|$)" <<<"$allowlist" |
    sed -nE 's/.*#[[:space:]]*//p' || true)
  if [[ -z "$reason" ]]; then
    echo "check_dead_declarations: allowlist entry $entry has no # reason" >&2
    fail=1
  fi
  if grep -qE "^${entry} " <<<"$declared"; then
    if grep -qE "^${entry} " <<<"$uses"; then
      echo "check_dead_declarations: allowlisted $entry now has a use under" \
           "src/ bench/ examples/ qpebench/; drop it from the allowlist" >&2
      fail=1
    fi
  elif grep -qE "^${entry} " <<<"$fields"; then
    if grep -qxF "$entry" <<<"$assigned"; then
      echo "check_dead_declarations: allowlisted field $entry is now" \
           "assigned; drop it from the allowlist" >&2
      fail=1
    fi
  else
    echo "check_dead_declarations: allowlisted $entry is not declared in" \
         "a src/ header or a config struct; drop it from the allowlist" >&2
    fail=1
  fi
done <<<"$allowed"

# Lines of the last input whose first word is in none of the others.
unmatched() {
  awk 'FILENAME != ARGV[ARGC - 1] { seen[$1] = 1; next } !($1 in seen)' "$@"
}

dead=$(unmatched <(printf '%s\n' "$allowed") <(printf '%s\n' "$uses") \
  <(printf '%s\n' "$declared"))
if [[ -n "$dead" ]]; then
  echo "check_dead_declarations: declared but never used under src/" \
       "bench/ examples/ qpebench/ (delete, or allowlist with a reason):" >&2
  sed 's/^/  /' <<<"$dead" >&2
  fail=1
fi

unset_fields=$(unmatched <(printf '%s\n' "$allowed") \
  <(printf '%s\n' "$assigned") <(printf '%s\n' "$fields"))
if [[ -n "$unset_fields" ]]; then
  echo "check_dead_declarations: config fields nothing assigns under src/" \
       "bench/ examples/ qpebench/ tests/ (make each a constexpr where it" \
       "is read):" >&2
  sed 's/^/  /' <<<"$unset_fields" >&2
  fail=1
fi

if [[ "$fail" -ne 0 ]]; then
  exit 1
fi
echo "check_dead_declarations: OK ($(wc -l <<<"$declared") declared names" \
     "and $(wc -l <<<"$fields") defaulted config fields, each used or set or" \
     "one of $(wc -l <<<"$allowed") allowlisted)"
