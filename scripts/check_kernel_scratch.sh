#!/usr/bin/env bash
# Kernel-scratch lint: the kernel bodies allocate nothing. Every buffer a
# kernel needs is caller scratch with its size documented in
# src/nn/simd.h, owned by the op chain (src/nn/tensor.cc) or the packed
# engine. It fails when `std::vector` or `#include <vector>` appears
# outside a // comment in the files compiled per instruction set
# (src/nn/simd_kernels_inl.h, src/nn/simd_avx2.cc, src/nn/simd_neon.cc):
# a standard-library template instantiated there is emitted under the
# ISA's flags as a weak symbol the linker may pick for portable code too.
#
# Usage: scripts/check_kernel_scratch.sh
set -euo pipefail

cd "$(dirname "$0")/.."

files=(src/nn/simd_kernels_inl.h src/nn/simd_avx2.cc src/nn/simd_neon.cc)
bad=$(grep -nE 'std::vector|#include <vector>' "${files[@]}" |
  sed 's#//.*##' | grep -E 'std::vector|#include <vector>' || true)
if [[ -n "$bad" ]]; then
  echo "check_kernel_scratch: std::vector in a kernel file (take caller" \
       "scratch, sized in src/nn/simd.h):" >&2
  echo "$bad" >&2
  exit 1
fi
echo "check_kernel_scratch: OK (no std::vector in ${files[*]})"
