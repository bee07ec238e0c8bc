#!/usr/bin/env bash
# Verifies the fault-tolerance layer end to end:
#
#  1. Builds with AddressSanitizer (-DQPE_SANITIZE=address) and runs the
#     robustness suites — framed-file and checkpoint corruption matrices,
#     transactional module loading, fault-injection sweeps, bit-exact resume —
#     under ASan, so any leak or out-of-bounds access on an error path
#     fails the run.
#  2. Ingestion fuzz sweep: 10k seeded byte-level mutations of EXPLAIN text
#     plus tree-level corruptions, run under ASan — any crash, leak, or
#     non-finite embedding from an accepted plan fails the run.
#  3. Exercises the QPE_FAULT environment hook: an injected checkpoint or
#     dataset-save fault must surface as a descriptive error (non-zero
#     exit), not a partial file.
#  4. Crash-resume smoke: kills a checkpointed workload_explorer run
#     mid-flight with SIGKILL, resumes it, and requires the resumed run's
#     model fingerprint to be bit-identical to an uninterrupted run's.
#  5. Serving-daemon chaos: under ASan, qpe_served takes live traffic and a
#     100,000-deep nested plan (typed error, still answers PING), then
#     drains cleanly on SIGTERM (leak check at exit); a second daemon is
#     SIGKILLed mid-traffic and its restart must restore the warm embedding
#     cache from the last crash-safe snapshot and keep serving.
#  6. Drift chaos: a drift-enabled daemon takes a structurally novel
#     stream, declares drift (responses flagged STALE), starts the
#     self-healing fine-tune, and is SIGKILLed mid-ADAPTING; the restart
#     must resume the round from its checkpoint, swap the adapted model
#     in, and serve the once-novel stream without a stale flag.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "=== [1/6] AddressSanitizer robustness suites ==="
cmake -B build-asan -S . -DQPE_SANITIZE=address >/dev/null
cmake --build build-asan -j"$(nproc)" \
  --target util_test checkpoint_test dataset_io_test robustness_test \
  ingestion_test serving_test daemon_test drift_test arena_test \
  simd_quant_test packed_pipeline_test workload_explorer qpe_served \
  qpe_client

# The durable-file layer: framed-file corruption matrix and write/read
# fault sweeps, every error path leak-checked.
ASAN_OPTIONS="halt_on_error=1${ASAN_OPTIONS:+:$ASAN_OPTIONS}" \
  ./build-asan/tests/util_test

ASAN_OPTIONS="halt_on_error=1${ASAN_OPTIONS:+:$ASAN_OPTIONS}" \
  ./build-asan/tests/checkpoint_test
ASAN_OPTIONS="halt_on_error=1${ASAN_OPTIONS:+:$ASAN_OPTIONS}" \
  ./build-asan/tests/dataset_io_test
ASAN_OPTIONS="halt_on_error=1${ASAN_OPTIONS:+:$ASAN_OPTIONS}" \
  ./build-asan/tests/robustness_test
ASAN_OPTIONS="halt_on_error=1${ASAN_OPTIONS:+:$ASAN_OPTIONS}" \
  ./build-asan/tests/serving_test
# The daemon suite under ASan: wire-protocol fuzzing, admission edge cases,
# socket fault injection, drain/SIGTERM paths — every error path leak-checked.
ASAN_OPTIONS="halt_on_error=1${ASAN_OPTIONS:+:$ASAN_OPTIONS}" \
  ./build-asan/tests/daemon_test
# Drift suite under ASan: sketches, the hysteresis monitor, wire v2
# trailer negotiation, crash-safe adaptation rounds, and the in-process
# drain-abort/resume/self-heal drill — every adaptation error path
# leak-checked.
ASAN_OPTIONS="halt_on_error=1${ASAN_OPTIONS:+:$ASAN_OPTIONS}" \
  ./build-asan/tests/drift_test
# The arena cooperates with sanitizers by disabling recycling
# (QPE_SANITIZE_BUILD): every Acquire allocates fresh and EndEpoch really
# frees, so ASan sees each graph buffer's true lifetime.
ASAN_OPTIONS="halt_on_error=1${ASAN_OPTIONS:+:$ASAN_OPTIONS}" \
  ./build-asan/tests/arena_test
# SIMD/quantization suite under ASan: the dispatch pins to the scalar
# reference (QPE_SANITIZE_BUILD), but the parity tests still drive the
# vector kernel tables directly through TableFor() — so ASan checks the
# AVX2/NEON tail-lane handling for out-of-bounds reads — and the int8
# calibration + quantized-encoder paths run end to end.
ASAN_OPTIONS="halt_on_error=1${ASAN_OPTIONS:+:$ASAN_OPTIONS}" \
  ./build-asan/tests/simd_quant_test
# Packed columnar pipeline under ASan, with the dispatch pinned scalar
# (QPE_SANITIZE_BUILD): the growable workspace buffers, the packed
# training forward/backward's scatter/gather indexing into the ragged
# layout, and the workspace-capture backward closures all get their
# bounds and lifetimes checked — including the new PackedTrainTest
# end-to-end training runs.
ASAN_OPTIONS="halt_on_error=1${ASAN_OPTIONS:+:$ASAN_OPTIONS}" \
  ./build-asan/tests/packed_pipeline_test

explorer=./build-asan/examples/workload_explorer

echo
echo "=== [2/6] Ingestion fuzz sweep (10k seeded mutations under ASan) ==="
# The ingestion suite runs its parser/sanitizer/encoder tests plus two fuzz
# loops (byte-level EXPLAIN mutations, tree-level corruptions); the fixed
# seeds inside the tests plus QPE_FUZZ_ITERS make every iteration
# reproducible. Lenient mode must accept-and-repair without ever producing
# a non-finite embedding; strict mode must reject with a descriptive Status
# and never a partial tree.
QPE_FUZZ_ITERS=10000 \
  ASAN_OPTIONS="halt_on_error=1${ASAN_OPTIONS:+:$ASAN_OPTIONS}" \
  ./build-asan/tests/ingestion_test
echo "ingestion fuzz sweep passed: no crashes, no leaks, finite embeddings"

echo
echo "=== [3/6] Environment-driven fault injection (QPE_FAULT) ==="
fault_dir=$(mktemp -d)
trap 'rm -rf "$fault_dir"' EXIT
# The very first checkpoint write fails; the run must exit non-zero and
# name the injected fault instead of leaving a torn checkpoint behind.
if out=$(QPE_FAULT="checkpoint.open_tmp:1" \
    "$explorer" --threads=1 --checkpoint-dir="$fault_dir" 0.05 8 2>&1); then
  echo "FAIL: run with an injected checkpoint fault exited 0"
  echo "$out"
  exit 1
fi
echo "$out" | grep -q "injected fault" || {
  echo "FAIL: injected fault not surfaced in the error output"
  echo "$out"
  exit 1
}
if compgen -G "$fault_dir/*.tmp" >/dev/null; then
  echo "FAIL: injected fault leaked a temp file in $fault_dir"
  exit 1
fi
echo "injected checkpoint fault surfaced cleanly, no temp file leaked"

# The executed-query dataset is published by the same atomic rename: a
# failed save must name the fault and publish nothing, neither a temp file
# nor a partial executed.qpe that a later --resume would trust.
dataset_dir="$fault_dir/dataset"
if out=$(QPE_FAULT="dataset.save.rename:1" \
    "$explorer" --threads=1 --checkpoint-dir="$dataset_dir" 0.05 8 2>&1); then
  echo "FAIL: run with an injected dataset-save fault exited 0"
  echo "$out"
  exit 1
fi
echo "$out" | grep -q "injected fault at site 'dataset.save.rename'" || {
  echo "FAIL: injected dataset-save fault not surfaced in the error output"
  echo "$out"
  exit 1
}
if compgen -G "$dataset_dir/*.tmp" >/dev/null ||
    [ -e "$dataset_dir/executed.qpe" ]; then
  echo "FAIL: failed dataset save left a file in $dataset_dir"
  ls -la "$dataset_dir"
  exit 1
fi
echo "injected dataset-save fault surfaced cleanly, nothing published"

echo
echo "=== [4/6] Crash-resume smoke (SIGKILL mid-run) ==="
SF=0.2
CONFIGS=24
fingerprint() { grep -o "model fingerprint: [0-9]*" | awk '{print $3}'; }

clean_dir=$(mktemp -d)
crash_dir=$(mktemp -d)
trap 'rm -rf "$fault_dir" "$clean_dir" "$crash_dir"' EXIT

start_ns=$(date +%s%N)
expected=$("$explorer" --threads=1 --checkpoint-dir="$clean_dir" \
    "$SF" "$CONFIGS" | fingerprint)
elapsed_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
[ -n "$expected" ] || { echo "FAIL: no fingerprint from the clean run"; exit 1; }
echo "uninterrupted run: fingerprint $expected (${elapsed_ms} ms)"

# Kill a second run halfway through the measured wall time. Wherever the
# SIGKILL lands — during workload execution, mid-epoch, between checkpoint
# writes — the atomic-rename protocol guarantees the resumed run continues
# from a consistent state and must reproduce the exact same weights.
half_s=$(awk "BEGIN { printf \"%.3f\", $elapsed_ms / 2000.0 }")
timeout -s KILL "$half_s" \
  "$explorer" --threads=1 --checkpoint-dir="$crash_dir" "$SF" "$CONFIGS" \
  >/dev/null 2>&1 && echo "note: run finished before the kill" || true

resumed=$("$explorer" --threads=1 --checkpoint-dir="$crash_dir" --resume \
    "$SF" "$CONFIGS" | fingerprint)
echo "killed-at-${half_s}s + resumed run: fingerprint ${resumed:-<none>}"

if [ "$resumed" != "$expected" ]; then
  echo "FAIL: resumed fingerprint differs from the uninterrupted run"
  exit 1
fi

echo
echo "=== [5/6] Serving-daemon chaos (drain, SIGKILL mid-traffic, warm restart) ==="
served=./build-asan/examples/qpe_served
qclient=./build-asan/examples/qpe_client
daemon_dir=$(mktemp -d)
trap 'rm -rf "$fault_dir" "$clean_dir" "$crash_dir" "$daemon_dir"' EXIT
sock="$daemon_dir/qpe.sock"
warm="$daemon_dir/warm.qpew"

# Wait for the daemon's "listening on" line rather than the socket file: a
# SIGKILLed predecessor leaves a stale socket file behind, so testing -S
# would race ahead of the restarted daemon's warm restore + bind.
wait_for_ready() {
  for _ in $(seq 1 100); do
    grep -q "listening on" "$1" 2>/dev/null && return 0
    sleep 0.1
  done
  echo "FAIL: daemon never reported listening ($1)"
  cat "$1" 2>/dev/null || true
  return 1
}

# 5a. Live traffic, then SIGTERM: the daemon must drain gracefully, exit 0
# (ASan leak-checks the whole process at exit), and leave a warm snapshot.
"$served" --socket="$sock" --small --workers=1 --warm-state="$warm" \
  --snapshot-every=4 >"$daemon_dir/served_drain.log" 2>&1 &
served_pid=$!
wait_for_ready "$daemon_dir/served_drain.log"
"$qclient" --socket="$sock" --plans=24 --per-request=6 >/dev/null
# A hostile frame nesting 100,000 plan nodes (700 KB, well under the payload
# cap) must get a typed INVALID_ARGUMENT instead of overflowing a worker's
# stack; the daemon must then still answer PING and drain cleanly below.
deep_plan="$daemon_dir/deep_plan.txt"
printf '(op "" %.0s' $(seq 100000) >"$deep_plan"
echo >>"$deep_plan"
deep_out=$("$qclient" --socket="$sock" --plan-file="$deep_plan" \
  --per-request=1 2>&1 || true)
echo "$deep_out" | grep -q "INVALID_ARGUMENT.*plan nesting deeper than" || {
  echo "FAIL: deeply nested plan did not get a typed INVALID_ARGUMENT"
  echo "$deep_out"
  cat "$daemon_dir/served_drain.log"
  exit 1
}
"$qclient" --socket="$sock" --ping >/dev/null || {
  echo "FAIL: daemon stopped answering PING after the deeply nested plan"
  cat "$daemon_dir/served_drain.log"
  exit 1
}
echo "deeply nested plan: typed INVALID_ARGUMENT, daemon still answers PING"
kill -TERM "$served_pid"
if ! wait "$served_pid"; then
  echo "FAIL: daemon exited non-zero after SIGTERM drain"
  cat "$daemon_dir/served_drain.log"
  exit 1
fi
grep -q "drained, exiting" "$daemon_dir/served_drain.log" || {
  echo "FAIL: no drain message in the daemon log"
  cat "$daemon_dir/served_drain.log"
  exit 1
}
[ -f "$warm" ] || { echo "FAIL: no warm snapshot after drain"; exit 1; }
echo "SIGTERM drain: clean exit, ASan leak check passed, snapshot written"

# 5b. SIGKILL mid-traffic: nothing is flushed, so the restart restores from
# the last *periodic* snapshot — the crash-safe write discipline means the
# file is either that snapshot or the previous one, never torn.
"$served" --socket="$sock" --small --workers=1 --warm-state="$warm" \
  --snapshot-every=4 >"$daemon_dir/served_kill.log" 2>&1 &
served_pid=$!
wait_for_ready "$daemon_dir/served_kill.log"
"$qclient" --socket="$sock" --plans=32 --per-request=4 >/dev/null 2>&1 &
traffic_pid=$!
sleep 0.5
kill -KILL "$served_pid"
wait "$served_pid" 2>/dev/null || true
wait "$traffic_pid" 2>/dev/null || true

"$served" --socket="$sock" --small --workers=1 --warm-state="$warm" \
  >"$daemon_dir/served_restart.log" 2>&1 &
served_pid=$!
wait_for_ready "$daemon_dir/served_restart.log"
# `|| true`: under set -e a failed grep in the assignment would abort the
# script silently instead of reaching the FAIL branch below.
restored=$(grep -o "warm cache restored: [0-9]*" \
  "$daemon_dir/served_restart.log" | awk '{print $4}' || true)
if [ -z "${restored:-}" ] || [ "$restored" -eq 0 ]; then
  echo "FAIL: restarted daemon did not restore the warm cache"
  cat "$daemon_dir/served_restart.log"
  exit 1
fi
# The restarted daemon must actually serve — same plans as before the kill,
# now answered from the restored cache.
"$qclient" --socket="$sock" --ping >/dev/null
"$qclient" --socket="$sock" --plans=24 --per-request=6 >/dev/null
kill -TERM "$served_pid"
wait "$served_pid" || {
  echo "FAIL: restarted daemon exited non-zero on drain"
  cat "$daemon_dir/served_restart.log"
  exit 1
}
echo "SIGKILL mid-traffic + restart: warm cache restored ($restored entries), serving resumed"

echo
echo "=== [6/6] Drift chaos (drift -> alarm -> SIGKILL mid-ADAPTING -> resume -> heal) ==="
drift_dir=$(mktemp -d)
trap 'rm -rf "$fault_dir" "$clean_dir" "$crash_dir" "$daemon_dir" "$drift_dir"' EXIT
dsock="$drift_dir/qpe.sock"
adapt="$drift_dir/adapt"

wait_for_log() {
  # Generous bound: the resumed fine-tune replays every remaining epoch
  # under ASan before "adaptation complete" appears.
  for _ in $(seq 1 1200); do
    grep -q "$2" "$1" 2>/dev/null && return 0
    sleep 0.1
  done
  echo "FAIL: timed out waiting for '$2' in $1"
  cat "$1" 2>/dev/null || true
  return 1
}

# Small detector window so a short drifted burst closes enough windows to
# alarm; enough fine-tune epochs (each one checkpointed) that the round
# far outlives the drifted stream and the SIGKILL below lands mid-round.
serve_drifty() {
  "$served" --socket="$dsock" --small --workers=1 --drift \
    --drift-window=32 --adapt-dir="$adapt" --adapt-epochs=64 \
    --adapt-pairs=16 >"$1" 2>&1 &
  served_pid=$!
  wait_for_ready "$1"
}

# 6a. Baseline traffic must never flag stale. The client replays the
# daemon's own baseline corpus: same generator, same options, same seed
# (--drift-corpus-seed defaults to 7, 96 plans), so the stream is exactly
# the plans the sketches were built over — the definition of "no drift".
serve_drifty "$drift_dir/served_drift.log"
"$qclient" --socket="$dsock" --plans=96 --per-request=8 --seed=7 \
  >"$drift_dir/client_baseline.log"
if grep -q "STALE" "$drift_dir/client_baseline.log"; then
  echo "FAIL: baseline traffic was flagged stale"
  cat "$drift_dir/client_baseline.log"
  exit 1
fi

# 6b. A structurally novel stream (plans twice the baseline's depth) must
# drive the monitor to DRIFTED: stale-flagged responses and an adaptation
# round. --retries covers the admission hiccups of an adapting daemon.
"$qclient" --socket="$dsock" --plans=192 --per-request=8 --seed=9 \
  --min-nodes=28 --max-nodes=48 --retries=3 \
  >"$drift_dir/client_drift.log"
grep -q "STALE" "$drift_dir/client_drift.log" || {
  echo "FAIL: drifted stream never produced a stale-flagged response"
  cat "$drift_dir/client_drift.log"
  cat "$drift_dir/served_drift.log"
  exit 1
}
wait_for_log "$drift_dir/served_drift.log" "adaptation started"

# 6c. SIGKILL mid-ADAPTING: the manifest survives; nothing else of the
# round may matter. The restart must resume from the last checkpoint,
# finish the round, and swap the adapted weights in.
kill -KILL "$served_pid"
wait "$served_pid" 2>/dev/null || true
[ -f "$adapt/manifest.qpam" ] || {
  echo "FAIL: no adaptation manifest survived the SIGKILL"
  ls -la "$adapt" 2>/dev/null || true
  exit 1
}
serve_drifty "$drift_dir/served_resume.log"
wait_for_log "$drift_dir/served_resume.log" "resuming interrupted adaptation"
wait_for_log "$drift_dir/served_resume.log" "adaptation complete: fingerprint"

# 6d. Healed: the once-novel stream is the model's new normal — responses
# carry no stale flag and the round left a refreshed fingerprint.
"$qclient" --socket="$dsock" --plans=64 --per-request=8 --seed=9 \
  --min-nodes=28 --max-nodes=48 --retries=3 \
  >"$drift_dir/client_healed.log"
if grep -q "STALE" "$drift_dir/client_healed.log"; then
  echo "FAIL: responses still stale after the resumed adaptation completed"
  cat "$drift_dir/client_healed.log"
  cat "$drift_dir/served_resume.log"
  exit 1
fi
"$qclient" --socket="$dsock" --stats >"$drift_dir/stats.json"
grep -q '"adaptations_resumed": 1' "$drift_dir/stats.json" || {
  echo "FAIL: stats do not record the resumed adaptation round"
  cat "$drift_dir/stats.json"
  exit 1
}
kill -TERM "$served_pid"
wait "$served_pid" || {
  echo "FAIL: drift daemon exited non-zero on final drain"
  cat "$drift_dir/served_resume.log"
  exit 1
}
echo "drift chaos: alarm raised, SIGKILL mid-ADAPTING, round resumed from"
echo "its checkpoint, adapted model swapped in, stream serves un-stale"

echo
echo "Robustness verification passed: ASan clean, ingestion fuzz clean,"
echo "faults degrade cleanly, crash-resume is bit-exact, daemon drains,"
echo "survives SIGKILL, restarts warm, and self-heals from drift."
