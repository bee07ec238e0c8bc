#!/usr/bin/env bash
# Builds bench_micro and records the plan-text parse and fingerprint
# micro-benchmarks and the parallel-engine ones
# (blocked vs reference MatMul kernels, fused vs unfused layer norm, the
# scalar vs dispatched SIMD kernels — the training step's three GEMMs
# among them, and the layer norm and blocked attention at ragged
# serve_cold-like shapes (BM_LayerNormRows, BM_AttentionBlockedRagged) —
# the packed int8 GEMM, full training steps at 1 vs 4 threads, and the
# Smatch hill climber that labels PPSR pairs) into BENCH_micro.json, then
# builds bench_serving and records the end-to-end serving numbers
# (per-plan vs batched vs warm-cache plans/sec, request latency
# percentiles) into BENCH_serving.json at the repo root.
#
# Baselines are ONLY recorded from a Release build. The default `build`
# tree is configured without CMAKE_BUILD_TYPE (no optimization), and a
# baseline recorded from it makes every later Release run look 5-10x
# faster than "baseline" — the regression gate becomes noise. This script
# therefore configures a dedicated build-release tree and refuses to
# commit numbers unless both binaries self-report a Release build type
# (the qpe_build_type JSON context / build_type JSON field, stamped from
# CMAKE_BUILD_TYPE at compile time).
#
# Both baselines are portable-build numbers (no -march=native; the SIMD
# kernels are picked at run time) so they are reproducible on any x86-64
# host.
#
# Read the *wall-clock* (real_time) column: google-benchmark's cpu_time only
# measures the main thread, so it under-reports multi-threaded runs. On a
# single-core machine the 4-thread rows match the 1-thread rows in wall time
# by construction; the kernel-level win shows up as BM_MatMul/N/1 vs
# BM_MatMulReference/N.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${QPE_BENCH_BUILD_DIR:-build-release}"
cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${BUILD_DIR}" --target bench_micro bench_serving -j"$(nproc)"

# min_time 0.2s: the train-step benchmarks run ~20 ms/iteration, and a
# 0.05s window records 2-3 warmup-dominated iterations — too noisy to gate
# a 25% regression threshold on. 3 repetitions with aggregates only: the
# microsecond-scale kernel benches see 30%+ single-shot swings on shared
# hosts, so the gate compares the per-benchmark MEDIAN across repetitions
# on both sides — and keeping only the aggregate rows in the committed
# file cuts its size by ~4x (per-repetition rows added ~4.7k lines of
# diff per re-record and carry no information the gate uses).
"./${BUILD_DIR}/bench/bench_micro" \
  --benchmark_filter='BM_ParsePlanNode|BM_FingerprintPlan|BM_MatMul|BM_LinearBiasAct|BM_TrainStep|Fused|BM_SoftmaxRows|BM_LayerNorm|BM_AttentionBlocked|BM_AttentionCls|BM_AttentionBackward|BM_EmbedGather|BM_Int8GemmPacked|BM_SmatchScore' \
  --benchmark_min_time=0.2 \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  --benchmark_out=BENCH_micro.json \
  --benchmark_out_format=json

echo
"./${BUILD_DIR}/bench/bench_serving" BENCH_serving.json

# Refuse to leave non-Release numbers behind as the committed baseline, and
# verify both files carry the detected SIMD level (the binaries stamp it
# at startup: "scalar", "avx2" or "neon") and the same core count. The regression gate later
# refuses baselines whose level does not match the machine it runs on —
# scalar-recorded numbers would make any vectorized run look like a win.
python3 - <<'PY'
import json
import sys

with open("BENCH_micro.json") as f:
    micro_ctx = json.load(f)["context"]
with open("BENCH_serving.json") as f:
    serving = json.load(f)
micro = micro_ctx.get("qpe_build_type", "")
micro_simd = micro_ctx.get("qpe_simd_level", "")
serving_simd = serving.get("simd_level", "")
micro_cpus = micro_ctx.get("qpe_num_cpus")
serving_cpus = serving.get("num_cpus")

bad = [name for name, value in [("BENCH_micro.json", micro),
                                ("BENCH_serving.json",
                                 serving.get("build_type", ""))]
       if value != "Release"]
if bad:
    for name in bad:
        print(f"ERROR: {name} was recorded from a non-Release build")
    print("refusing to keep a debug-recorded baseline; "
          "delete the files and rerun")
    sys.exit(1)
if not micro_simd or not serving_simd or micro_simd != serving_simd:
    print(f"ERROR: SIMD level missing or inconsistent between baselines "
          f"(micro: '{micro_simd}', serving: '{serving_simd}')")
    sys.exit(1)
if (micro_cpus is None or serving_cpus is None
        or int(micro_cpus) != int(serving_cpus)):
    print(f"ERROR: core count missing or inconsistent between baselines "
          f"(micro: '{micro_cpus}', serving: '{serving_cpus}')")
    sys.exit(1)
print("\nbaseline build type: Release (verified in both files)")
print(f"baseline SIMD level: {serving_simd}")
print(f"baseline core count: {serving_cpus}")
PY

echo
echo "Wrote $(pwd)/BENCH_micro.json and $(pwd)/BENCH_serving.json"
