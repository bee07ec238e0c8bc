#!/usr/bin/env bash
# ISA-object lint: the translation unit compiled with an instruction set's
# flags (src/nn/simd_avx2.cc with -mavx2, or src/nn/simd_neon.cc) defines
# no weak symbol. An inline function or template it emits with external
# linkage is a weak definition (nm type W, or V for an object), and the
# linker keeps one copy per program — possibly this one, built with the
# ISA's flags, for every caller, portable code included. That code would
# then run vector instructions on a CPU that never reported them. So the
# helpers in src/nn/simd.h and src/nn/simd_kernels_inl.h have internal
# linkage, and kernel bodies call the C library's expf, sqrtf, ... rather
# than their std:: wrappers.
#
# An optimized build inlines most such calls, so an optimized object
# without weak symbols proves little. The lint checks the ISA member of
# the built library and also recompiles the source at -O0, where every
# inline function that is called gets emitted.
#
# Usage: scripts/check_isa_weak_symbols.sh LIBQPE.a CXX SOURCE [ISA_FLAGS...]
#   e.g. scripts/check_isa_weak_symbols.sh build/src/libqpe.a c++ \
#          src/nn/simd_avx2.cc -mavx2 -ffp-contract=off
set -euo pipefail

if [[ $# -lt 3 ]]; then
  echo "usage: $0 LIBQPE.a CXX SOURCE [ISA_FLAGS...]" >&2
  exit 2
fi
lib="$(realpath "$1")"
cxx=$2
src="$(realpath "$3")"
shift 3
repo="$(cd "$(dirname "$0")/.." && pwd)"
member="$(basename "${src}").o"  # simd_avx2.cc.o
isa="$(basename "${src}" .cc)"
isa="${isa#simd_}"                # avx2
tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

(cd "${tmp}" && ar x "${lib}" "${member}")
"${cxx}" -std=c++20 -O0 "-DQPE_HAVE_${isa^^}" -I"${repo}/src" "$@" \
  -c "${src}" -o "${tmp}/O0.o"

failed=0
for obj in "${member}" O0.o; do
  bad="$(nm "${tmp}/${obj}" | awk '$2 ~ /^[WV]$/' | c++filt)"
  if [[ -n "${bad}" ]]; then
    echo "check_isa_weak_symbols: weak symbols in ${obj}" \
         "(give them internal linkage):" >&2
    echo "${bad}" >&2
    failed=1
  fi
done
if [[ ${failed} -ne 0 ]]; then
  exit 1
fi
echo "check_isa_weak_symbols: OK (no weak symbol in ${member} of ${lib}" \
     "or in ${src} at -O0)"
