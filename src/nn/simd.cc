#include "nn/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "nn/simd_kernels_inl.h"

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif

namespace qpe::nn::simd {

// Per-ISA tables, defined in simd_avx2.cc / simd_neon.cc when the build
// compiles them (QPE_HAVE_* set by CMake for the matching architecture).
#if defined(QPE_HAVE_AVX2)
const Kernels* GetAvx2Kernels();
#endif
#if defined(QPE_HAVE_NEON)
const Kernels* GetNeonKernels();
#endif

namespace {

// Width-1 "vector" policy: instantiating the shared kernel bodies with it
// reproduces the pre-SIMD scalar loops statement for statement, so the
// scalar table is the bit-exactness reference for every other level.
struct ScalarOps {
  static constexpr int kLanes = 1;
  using Vec = float;
  static Vec Load(const float* p) { return *p; }
  static void Store(float* p, Vec v) { *p = v; }
  static Vec Broadcast(float x) { return x; }
  static Vec Add(Vec a, Vec b) { return a + b; }
  static Vec Sub(Vec a, Vec b) { return a - b; }
  static Vec Mul(Vec a, Vec b) { return a * b; }
  static Vec Div(Vec a, Vec b) { return a / b; }
  static Vec Max(Vec a, Vec b) { return a < b ? b : a; }
  static Vec Min(Vec a, Vec b) { return b < a ? b : a; }
  static Vec Trunc(Vec v) { return std::trunc(v); }
  static Vec CopySign(Vec mag, Vec sgn) { return std::copysign(mag, sgn); }
  static void StoreI8(int8_t* p, Vec v) { *p = static_cast<int8_t>(v); }
  static Vec Sqrt(Vec v) { return std::sqrt(v); }
  static float HMax(Vec v) { return v; }
  // std::exp, not a polynomial: the scalar table is the seed-bit-exact
  // reference, so its exp must be the libm call the pre-SIMD code made.
  static Vec Exp(Vec v) { return std::exp(v); }

  // Int8 GEMM steps: one int32 sum per accumulator, the 16 products added
  // in ascending order.
  struct VecI16 {
    int16_t v[kInt8TileK];
  };
  using AccI32 = int32_t;
  static VecI16 WidenI8(const int8_t* p) {
    VecI16 r;
    for (int kk = 0; kk < kInt8TileK; ++kk) r.v[kk] = p[kk];
    return r;
  }
  static VecI16 LoadI16(const int16_t* p) {
    VecI16 r;
    for (int kk = 0; kk < kInt8TileK; ++kk) r.v[kk] = p[kk];
    return r;
  }
  static AccI32 ZeroI32() { return 0; }
  static AccI32 MaddI16(AccI32 acc, const VecI16& a, const VecI16& b) {
    for (int kk = 0; kk < kInt8TileK; ++kk) {
      acc += static_cast<int32_t>(a.v[kk]) * static_cast<int32_t>(b.v[kk]);
    }
    return acc;
  }
  static void FoldSums4(AccI32 a0, AccI32 a1, AccI32 a2, AccI32 a3,
                        int32_t* sums) {
    sums[0] = a0;
    sums[1] = a1;
    sums[2] = a2;
    sums[3] = a3;
  }
};

constexpr Kernels kScalarTable =
    MakeKernels<ScalarOps>(Level::kScalar, "scalar");

Level DetectHardwareLevel() {
#if defined(QPE_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
#if defined(QPE_HAVE_NEON)
#if defined(__linux__)
  if (getauxval(AT_HWCAP) & HWCAP_ASIMD) return Level::kNeon;
#else
  return Level::kNeon;  // AdvSIMD is architecturally mandatory on aarch64
#endif
#endif
  return Level::kScalar;
}

// The table a request installs: ResolveLevel against this CPU, then the
// sanitizer clamp.
const Kernels* UsableTable(Level requested) {
  const Level level = ResolveLevel(requested, DetectHardwareLevel());
#if defined(QPE_SANITIZE_BUILD)
  // Sanitizer builds run everything through the scalar reference so TSan
  // and ASan never have to reason about vendor intrinsics; the detection
  // and dispatch code above still executes.
  if (level != Level::kScalar) return &kScalarTable;
#endif
  return TableFor(level);
}

std::atomic<const Kernels*> g_active{nullptr};

const Kernels* ActiveTable() {
  const Kernels* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    // First use (or a benign race between first users: both writers store
    // the same pointer).
    table = UsableTable(
        ParseLevel(std::getenv("QPE_SIMD"), DetectHardwareLevel()));
    g_active.store(table, std::memory_order_release);
  }
  return table;
}

}  // namespace

void PackInt8WeightTiles(const int8_t* w, int k, int n, int16_t* packed) {
  const int kp = Int8PackedKPad(k);
  const int kb = kp / kInt8TileK;
  const int tiles = (n + kInt8TileN - 1) / kInt8TileN;
  for (int t = 0; t < tiles; ++t) {
    for (int b = 0; b < kb; ++b) {
      for (int ch = 0; ch < kInt8TileN; ++ch) {
        const int j = t * kInt8TileN + ch;
        int16_t* dst =
            packed + ((static_cast<size_t>(t) * kb + b) * kInt8TileN + ch) *
                         kInt8TileK;
        for (int kk = 0; kk < kInt8TileK; ++kk) {
          const int p = b * kInt8TileK + kk;
          dst[kk] = (j < n && p < k)
                        ? static_cast<int16_t>(w[static_cast<size_t>(j) * k + p])
                        : int16_t{0};
        }
      }
    }
  }
}

const Kernels* TableFor(Level level) {
  switch (level) {
    case Level::kScalar:
      return &kScalarTable;
    case Level::kAvx2:
#if defined(QPE_HAVE_AVX2)
      return GetAvx2Kernels();
#else
      return nullptr;
#endif
    case Level::kNeon:
#if defined(QPE_HAVE_NEON)
      return GetNeonKernels();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

const Kernels& K() { return *ActiveTable(); }

Level ActiveLevel() { return K().level; }

uint32_t ArithmeticStamp() {
  return (kKernelArithmeticRevision << 8) |
         static_cast<uint32_t>(ActiveLevel());
}

Level HardwareLevel() { return DetectHardwareLevel(); }

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
    case Level::kNeon: return "neon";
  }
  return "scalar";
}

Level ParseLevel(const char* s, Level fallback) {
  if (s == nullptr || *s == '\0') return fallback;
  if (std::strcmp(s, "0") == 0 || std::strcmp(s, "scalar") == 0 ||
      std::strcmp(s, "off") == 0) {
    return Level::kScalar;
  }
  if (std::strcmp(s, "avx2") == 0) return Level::kAvx2;
  if (std::strcmp(s, "neon") == 0) return Level::kNeon;
  return fallback;  // "1", "auto", unknown strings: keep the detected level
}

Level ResolveLevel(Level requested, Level hardware) {
  return requested == hardware ? requested : Level::kScalar;
}

Level ForceLevel(Level level) {
  const Kernels* table = UsableTable(level);
  g_active.store(table, std::memory_order_release);
  return table->level;
}

const Kernels* InstallTable(const Kernels* table) {
  const Kernels* previous = ActiveTable();
  g_active.store(table, std::memory_order_release);
  return previous;
}

}  // namespace qpe::nn::simd
