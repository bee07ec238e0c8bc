#!/usr/bin/env bash
# Builds the project, runs the full test suite, and regenerates every paper
# table/figure, capturing outputs into test_output.txt / bench_output.txt at
# the repo root. This is the one-command reproduction of EXPERIMENTS.md.
set -uo pipefail

cd "$(dirname "$0")/.."

# The tier-1 configure line (default generator), so an existing build/
# tree is reused rather than refused for a generator mismatch.
cmake -B build -S .
cmake --build build -j"$(nproc)"

# ctest includes the seven lints: no new env knobs
# (scripts/check_env_knobs.sh), the kernel table
# (scripts/check_kernel_callers.sh), kernel scratch
# (scripts/check_kernel_scratch.sh), no ISA weak symbols
# (scripts/check_isa_weak_symbols.sh), one file layer
# (scripts/check_durable_writes.sh), one byte codec
# (scripts/check_byte_codec.sh) and no dead declarations
# (scripts/check_dead_declarations.sh).
ctest --test-dir build 2>&1 | tee test_output.txt

# Benchmark self-test: qpebench compiles src/ into its own tree, so a
# library change that breaks a header it uses fails here, and every
# workload gets a short smoke run (see qpebench/README.md).
python3 qpebench/run.py --self-test 2>&1 | tee -a test_output.txt

# Fault-tolerance verification: ASan robustness suites, fault injection,
# and the crash-resume smoke (see scripts/verify_robustness.sh).
./scripts/verify_robustness.sh 2>&1 | tee -a test_output.txt

# Profiling-toolchain smoke: build the gprof tree and take capped-workload
# flat profiles of bench_serving and the training benchmarks (see
# scripts/profile_serving.sh and scripts/profile_training.sh for the
# full-workload versions used when chasing a regression).
QPE_PROFILE_SMOKE=1 ./scripts/profile_serving.sh 2>&1 | tee -a test_output.txt
QPE_PROFILE_SMOKE=1 ./scripts/profile_training.sh 2>&1 | tee -a test_output.txt

: > bench_output.txt
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "===== $b =====" | tee -a bench_output.txt
  "$b" 2>&1 | tee -a bench_output.txt
  echo | tee -a bench_output.txt
done
