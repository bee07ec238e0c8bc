#!/usr/bin/env bash
# Builds the library with ThreadSanitizer (-DQPE_SANITIZE=thread) and runs
# the threading test suite — thread-pool semantics, MatMul-vs-reference
# equivalence, and the threads=1 vs threads=4 bit-exact determinism tests —
# plus the serving suite (sharded embedding cache under concurrent
# hit/miss/eviction traffic, EmbeddingService with data-parallel
# micro-batches) under TSan, so any data race in the parallel engine or the
# serving layer fails the run. The arena suite rides along: per-thread
# arenas plus the relaxed-atomic telemetry counters must stay race-free
# under the multi-threaded training tests. The simd_quant suite runs too:
# sanitizer builds pin the kernel dispatch to the scalar reference
# (QPE_SANITIZE_BUILD), but the dispatch machinery, the quantization
# calibration pass and the int8 serving engine all still execute — TSan
# checks the lazy kernel-table initialization and the quantized encoder's
# shared read-only state under the service's data-parallel micro-batches.
# The daemon suite's cache-concurrency tests run too: a warm snapshot
# walking all shards while writers insert/lookup is exactly the
# reader-vs-writer interleaving the daemon's snapshot thread produces.
# The packed-pipeline suite covers the columnar training path: its
# PackedTrainTest cases run TrainPpsr with data-parallel shards writing
# through thread-local packed workspaces and GradientCapture redirects at
# 1 vs 4 threads — with the dispatch pinned scalar (QPE_SANITIZE_BUILD),
# TSan sees exactly the shard interleavings production training runs.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build-tsan -S . -DQPE_SANITIZE=thread >/dev/null
cmake --build build-tsan --target threading_test serving_test arena_test \
  simd_quant_test daemon_test packed_pipeline_test -j"$(nproc)"

TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
  ./build-tsan/tests/threading_test
TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
  ./build-tsan/tests/serving_test
TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
  ./build-tsan/tests/arena_test
TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
  ./build-tsan/tests/simd_quant_test
# Packed columnar pipeline, inference and training: thread-local workspace
# reuse, the packed training forward/backward under multi-threaded
# ParallelGradientStep shards, and the threads=1 vs threads=4 bitwise
# determinism contract.
TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
  ./build-tsan/tests/packed_pipeline_test
# Snapshot-vs-insert and stats-vs-traffic consistency on the sharded cache
# (the rest of the daemon suite is socket-bound, not concurrency-bound).
TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
  ./build-tsan/tests/daemon_test --gtest_filter='CacheStatsTest.*'

echo
echo "ThreadSanitizer run clean."
