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
  static Vec Sqrt(Vec v) { return std::sqrt(v); }
  static float HMax(Vec v) { return v; }
  // std::exp, not a polynomial: the scalar table is the seed-bit-exact
  // reference, so its exp must be the libm call the pre-SIMD code made.
  static Vec Exp(Vec v) { return std::exp(v); }
};

void ScalarMatMulForwardRange(const float* a, const float* b, float* out,
                              int i0, int i1, int k, int n) {
  MatMulForwardRangeT<ScalarOps>(a, b, out, i0, i1, k, n);
}

void ScalarBiasRelu(const float* a, const float* bias, float* out, int m,
                    int n) {
  BiasReluT<ScalarOps>(a, bias, out, m, n);
}

void ScalarLayerNormRows(const float* x, const float* gamma, const float* beta,
                         float* out, int m, int n, float invn) {
  LayerNormRowsT<ScalarOps>(x, gamma, beta, out, m, n, invn);
}

void ScalarSoftmaxRowsMasked(const float* a, float* out, const int* valid,
                             int m, int n) {
  SoftmaxRowsMaskedT<ScalarOps>(a, out, valid, m, n);
}

void ScalarAttentionForwardPacked(const float* q, const float* k,
                                  const float* v, float* out,
                                  const int* offsets, const int* lengths,
                                  int num_seqs, int num_heads, int dim,
                                  float scale) {
  AttentionForwardPackedT<ScalarOps>(q, k, v, out, offsets, lengths, num_seqs,
                                     num_heads, dim, scale);
}

void ScalarEmbedGatherAdd(const float* e1, const float* e2, const float* e3,
                          const float* pos, const int* ids1, const int* ids2,
                          const int* ids3, const int* positions, float* out,
                          int rows, int d1, int d2, int d3) {
  EmbedGatherAddT<ScalarOps>(e1, e2, e3, pos, ids1, ids2, ids3, positions, out,
                             rows, d1, d2, d3);
}

void ScalarAttentionForwardBlocked(const float* q, const float* kbt,
                                   const float* vb, float* out,
                                   const int* offsets, const int* lengths,
                                   int num_seqs, int num_heads, int total_rows,
                                   int dim, float scale, float* probs) {
  AttentionForwardBlockedT<ScalarOps>(q, kbt, vb, out, offsets, lengths,
                                      num_seqs, num_heads, total_rows, dim,
                                      scale, probs);
}

void ScalarAttentionClsBlocked(const float* q, const float* kbt,
                               const float* vb, float* out,
                               const int* offsets, const int* lengths,
                               int num_seqs, int num_heads, int total_rows,
                               int dim, float scale, float* probs) {
  AttentionForwardBlockedT<ScalarOps, true>(q, kbt, vb, out, offsets,
                                            lengths, num_seqs, num_heads,
                                            total_rows, dim, scale, probs);
}

void ScalarInt8GemmPacked(const int8_t* a, const int16_t* bp, float* c, int m,
                          int k, int n, const float* a_scale,
                          const float* b_scale, const float* bias) {
  Int8GemmPackedRef(a, bp, c, m, k, n, a_scale, b_scale, bias);
}

void ScalarQuantizeBuffer(const float* x, int n, float inv_scale,
                          int8_t* out) {
  QuantizeBufferRef(x, n, inv_scale, out);
}

void ScalarLinearBiasAct(const float* a, const float* b, const float* bias,
                         float* out, int m, int k, int n, int relu) {
  LinearBiasActT<ScalarOps>(a, b, bias, out, m, k, n, relu);
}

void ScalarAddRows(float* dst, const float* src, size_t n) {
  AddRowsT<ScalarOps>(dst, src, n);
}

void ScalarMatMulBackwardA(const float* og, const float* bv, float* ag,
                           int i0, int i1, int k, int n) {
  MatMulBackwardAT<ScalarOps>(og, bv, ag, i0, i1, k, n);
}

void ScalarMatMulBackwardB(const float* av, const float* og, float* bg,
                           int p0, int p1, int m, int k, int n) {
  MatMulBackwardBT<ScalarOps>(av, og, bg, p0, p1, m, k, n);
}

void ScalarBiasActBackward(const float* ov, const float* og, float* ag,
                           float* bg, int m, int n) {
  BiasActBackwardT<ScalarOps>(ov, og, ag, bg, m, n);
}

void ScalarLayerNormRowsBackward(const float* xv, const float* gv,
                                 const float* og, float* xg, float* gg,
                                 float* bg, int m, int n, float invn) {
  LayerNormRowsBackwardT<ScalarOps>(xv, gv, og, xg, gg, bg, m, n, invn);
}

void ScalarSoftmaxRowsMaskedBackward(const float* yv, const float* gy,
                                     float* gx, const int* valid, int m,
                                     int n) {
  SoftmaxRowsMaskedBackwardT<ScalarOps>(yv, gy, gx, valid, m, n);
}

void ScalarAttentionBackwardPacked(const float* qv, const float* kv,
                                   const float* vv, const float* og,
                                   float* qg, float* kg, float* vg,
                                   const int* offsets, const int* lengths,
                                   int num_seqs, int num_heads, int dim,
                                   float scale) {
  AttentionBackwardPackedT<ScalarOps>(qv, kv, vv, og, qg, kg, vg, offsets,
                                      lengths, num_seqs, num_heads, dim,
                                      scale);
}

void ScalarAttentionBackwardCls(const float* q, const float* kbt,
                                const float* vbt, const float* og, float* qg,
                                float* kg, float* vg, const int* offsets,
                                const int* lengths, int num_seqs, int num_heads,
                                int total_rows, int dim, float scale,
                                float* probs) {
  AttentionBackwardClsT<ScalarOps>(q, kbt, vbt, og, qg, kg, vg, offsets,
                                   lengths, num_seqs, num_heads, total_rows,
                                   dim, scale, probs);
}

void ScalarAdamStep(float* value, const float* grad, float* m, float* v,
                    size_t n, float lr, float beta1, float beta2, float eps,
                    float bias1, float bias2, float weight_decay) {
  AdamStepT<ScalarOps>(value, grad, m, v, n, lr, beta1, beta2, eps, bias1,
                       bias2, weight_decay);
}

const Kernels kScalarTable = {
    Level::kScalar,
    "scalar",
    &ScalarMatMulForwardRange,
    &ScalarBiasRelu,
    &ScalarLayerNormRows,
    &ScalarSoftmaxRowsMasked,
    &ScalarAttentionForwardPacked,
    &ScalarEmbedGatherAdd,
    &ScalarAttentionForwardBlocked,
    &ScalarAttentionClsBlocked,
    &ScalarInt8GemmPacked,
    &ScalarQuantizeBuffer,
    &ScalarLinearBiasAct,
    &ScalarAddRows,
    &ScalarMatMulBackwardA,
    &ScalarMatMulBackwardB,
    &ScalarBiasActBackward,
    &ScalarLayerNormRowsBackward,
    &ScalarSoftmaxRowsMaskedBackward,
    &ScalarAttentionBackwardPacked,
    &ScalarAttentionBackwardCls,
    &ScalarAdamStep,
};

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

Level InitialLevel() {
  Level level = DetectHardwareLevel();
  level = ParseLevel(std::getenv("QPE_SIMD"), level);
  if (TableFor(level) == nullptr) level = Level::kScalar;
#if defined(QPE_SANITIZE_BUILD)
  // Sanitizer builds run everything through the scalar reference so TSan
  // and ASan never have to reason about vendor intrinsics; the detection
  // and dispatch code above still executes.
  level = Level::kScalar;
#endif
  return level;
}

std::atomic<const Kernels*> g_active{nullptr};

const Kernels* ActiveTable() {
  const Kernels* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    // First use (or a benign race between first users: both writers store
    // the same pointer). TableFor is non-null here by InitialLevel.
    table = TableFor(InitialLevel());
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

Level ForceLevel(Level level) {
  const Kernels* table = TableFor(level);
  if (table == nullptr) table = &kScalarTable;
#if defined(QPE_SANITIZE_BUILD)
  table = &kScalarTable;
#endif
  g_active.store(table, std::memory_order_release);
  return table->level;
}

const Kernels* InstallTable(const Kernels* table) {
  const Kernels* previous = ActiveTable();
  g_active.store(table, std::memory_order_release);
  return previous;
}

}  // namespace qpe::nn::simd
