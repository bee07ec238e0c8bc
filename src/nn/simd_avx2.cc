// AVX2 kernel table. Compiled only on x86-64, with -mavx2 (and
// -ffp-contract=off so the compiler cannot contract the explicit
// mul+add pairs into FMA — contraction would break the bit-exactness of
// the vector lanes against the scalar reference). The functions are only
// ever called through the dispatch table after __builtin_cpu_supports
// confirmed AVX2 at runtime, so this TU's codegen never executes on a
// pre-AVX2 machine.

#if defined(QPE_HAVE_AVX2)

#include <immintrin.h>

#include "nn/simd.h"
#include "nn/simd_kernels_inl.h"

namespace qpe::nn::simd {

namespace {

struct Avx2Ops {
  static constexpr int kLanes = 8;
  using Vec = __m256;
  static Vec Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
  static Vec Broadcast(float x) { return _mm256_set1_ps(x); }
  static Vec Add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
  static Vec Sub(Vec a, Vec b) { return _mm256_sub_ps(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }
  static Vec Div(Vec a, Vec b) { return _mm256_div_ps(a, b); }
  // max(a, b) with b preferred on unordered — matches std::max's
  // (a < b ? b : a) selection exactly on the finite inputs the kernels see.
  static Vec Max(Vec a, Vec b) { return _mm256_max_ps(b, a); }
  // Correctly rounded per IEEE 754, same bits as scalar sqrtf per lane.
  static Vec Sqrt(Vec v) { return _mm256_sqrt_ps(v); }
  // All-ones mask where v > 0 (quiet compare: NaN lanes gate off), and a
  // bitwise AND — the pair turns BiasActBackwardT's branch into a mask.
  static Vec GtZero(Vec v) {
    return _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ);
  }
  static Vec And(Vec a, Vec b) { return _mm256_and_ps(a, b); }
  static float HMax(Vec v) {
    __m128 lo = _mm256_castps256_ps128(v);
    __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 m = _mm_max_ps(lo, hi);
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
    return _mm_cvtss_f32(m);
  }
  // 8-lane expf: Cephes-style range reduction (x = n*ln2 + r, ln2 split
  // into a high part and a correction so r stays accurate) and a degree-5
  // polynomial on r, then scale by 2^n via exponent-field arithmetic.
  // Max error ~2 ulp against libm expf — this is the one kernel op allowed
  // to diverge from the scalar reference (epsilon contract, see
  // simd_kernels_inl.h); vectorizing exp is where the attention-softmax
  // speedup comes from. Inputs are clamped to the finite float range of
  // expf, so softmax's x - max <= 0 arguments never overflow and deeply
  // negative scores saturate to a denormal instead of 0 (harmless: they
  // vanish in the normalizing division).
  static Vec Exp(Vec x) {
    x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(-87.3365478515625f)),
                      _mm256_set1_ps(88.3762626647949f));
    const Vec n = _mm256_round_ps(
        _mm256_mul_ps(x, _mm256_set1_ps(1.44269504088896341f)),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    Vec r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(0.693359375f)));
    r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(-2.12194440e-4f)));
    Vec p = _mm256_set1_ps(1.9875691500e-4f);
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.3981999507e-3f));
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(8.3334519073e-3f));
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(4.1665795894e-2f));
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.6666665459e-1f));
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(5.0000001201e-1f));
    p = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(p, r), r),
                      _mm256_add_ps(r, _mm256_set1_ps(1.0f)));
    const __m256i pow2 = _mm256_slli_epi32(
        _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23);
    return _mm256_mul_ps(p, _mm256_castsi256_ps(pow2));
  }
};

// Packed-tile int8 GEMM. The tile layout (kInt8TileN = 4 channels x
// kInt8TileK = 16 k-steps, pre-sign-extended to int16 — see
// PackInt8WeightTiles) lets one sign-extended activation vector feed four
// madd_epi16 against four direct 256-bit weight loads — instead of one
// madd plus a full horizontal sum per (i, j), and with no cvtepi8_epi16 on
// the weight side at all (the widening happened once at pack time; inline
// it was 4 of the 5 shuffles per k-block and capped the kernel at roughly
// fp32 speed). The four int32 accumulators are folded with two hadds at
// tile end, amortizing the horizontal reduction across four output
// channels, and every weight byte is a sequential read. Integer
// accumulation is exact in any order, so the result is bit-identical to
// Int8GemmPackedRef.
void Avx2Int8GemmPacked(const int8_t* a, const int16_t* bp, float* c, int m,
                        int k, int n, const float* a_scale,
                        const float* b_scale, const float* bias) {
  const int kp = Int8PackedKPad(k);
  const int kb = kp / kInt8TileK;
  const int tiles = (n + kInt8TileN - 1) / kInt8TileN;
  for (int i = 0; i < m; ++i) {
    const int8_t* arow = a + static_cast<size_t>(i) * kp;
    float* crow = c + static_cast<size_t>(i) * n;
    const float as = a_scale[i];
    for (int t = 0; t < tiles; ++t) {
      const int16_t* btile =
          bp + static_cast<size_t>(t) * kb * (kInt8TileN * kInt8TileK);
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      __m256i acc2 = _mm256_setzero_si256();
      __m256i acc3 = _mm256_setzero_si256();
      for (int b = 0; b < kb; ++b) {
        const __m256i a16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(arow + b * kInt8TileK)));
        const int16_t* bb =
            btile + static_cast<size_t>(b) * (kInt8TileN * kInt8TileK);
        acc0 = _mm256_add_epi32(
            acc0, _mm256_madd_epi16(a16, _mm256_loadu_si256(
                                             reinterpret_cast<const __m256i*>(
                                                 bb))));
        acc1 = _mm256_add_epi32(
            acc1, _mm256_madd_epi16(a16, _mm256_loadu_si256(
                                             reinterpret_cast<const __m256i*>(
                                                 bb + kInt8TileK))));
        acc2 = _mm256_add_epi32(
            acc2, _mm256_madd_epi16(a16, _mm256_loadu_si256(
                                             reinterpret_cast<const __m256i*>(
                                                 bb + 2 * kInt8TileK))));
        acc3 = _mm256_add_epi32(
            acc3, _mm256_madd_epi16(a16, _mm256_loadu_si256(
                                             reinterpret_cast<const __m256i*>(
                                                 bb + 3 * kInt8TileK))));
      }
      // hadd twice folds the four 8-lane accumulators into one vector of
      // [sum0, sum1, sum2, sum3] per 128-bit half; adding the halves gives
      // the four channel totals.
      const __m256i t0 = _mm256_hadd_epi32(acc0, acc1);
      const __m256i t1 = _mm256_hadd_epi32(acc2, acc3);
      const __m256i t2 = _mm256_hadd_epi32(t0, t1);
      const __m128i sums = _mm_add_epi32(_mm256_castsi256_si128(t2),
                                         _mm256_extracti128_si256(t2, 1));
      const int j0 = t * kInt8TileN;
      if (n - j0 >= kInt8TileN) {
        // Full tile: dequantize all four channels at once. Identical IEEE
        // ops per lane — int32->float convert, then (total * as) *
        // b_scale[j] + bias[j] in the scalar epilogue's order — so the
        // bits match the scalar tail exactly.
        __m128 y = _mm_mul_ps(_mm_mul_ps(_mm_cvtepi32_ps(sums),
                                         _mm_set1_ps(as)),
                              _mm_loadu_ps(b_scale + j0));
        if (bias != nullptr) y = _mm_add_ps(y, _mm_loadu_ps(bias + j0));
        _mm_storeu_ps(crow + j0, y);
      } else {
        alignas(16) int32_t acc[kInt8TileN];
        _mm_store_si128(reinterpret_cast<__m128i*>(acc), sums);
        const int jmax = n - j0;
        for (int ch = 0; ch < jmax; ++ch) {
          const int j = j0 + ch;
          float y = static_cast<float>(acc[ch]) * as * b_scale[j];
          if (bias != nullptr) y += bias[j];
          crow[j] = y;
        }
      }
    }
  }
}

// 8-lane quantize: the exact trunc(t + copysign(0.5, t)) sequence of
// QuantizeOneRef, every step an exact IEEE op, so each lane produces the
// same int8 the scalar reference does.
void Avx2QuantizeBuffer(const float* x, int n, float inv_scale, int8_t* out) {
  const __m256 vs = _mm256_set1_ps(inv_scale);
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 hi = _mm256_set1_ps(127.0f);
  const __m256 lo = _mm256_set1_ps(-127.0f);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t = _mm256_mul_ps(_mm256_loadu_ps(x + i), vs);
    const __m256 h = _mm256_or_ps(_mm256_and_ps(t, sign), half);
    __m256 r = _mm256_round_ps(_mm256_add_ps(t, h),
                               _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    r = _mm256_max_ps(_mm256_min_ps(r, hi), lo);
    const __m256i q32 = _mm256_cvtps_epi32(r);
    const __m128i q16 = _mm_packs_epi32(_mm256_castsi256_si128(q32),
                                        _mm256_extracti128_si256(q32, 1));
    const __m128i q8 = _mm_packs_epi16(q16, q16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), q8);
  }
  for (; i < n; ++i) out[i] = QuantizeOneRef(x[i], inv_scale);
}

constexpr Kernels kAvx2Table = MakeKernels<Avx2Ops>(
    Level::kAvx2, "avx2", &Avx2Int8GemmPacked, &Avx2QuantizeBuffer);

}  // namespace

const Kernels* GetAvx2Kernels() { return &kAvx2Table; }

}  // namespace qpe::nn::simd

#endif  // QPE_HAVE_AVX2
