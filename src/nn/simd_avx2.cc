// AVX2 kernel table: the Avx2Ops policy and its one MakeKernels line (the
// kernel bodies are in simd_kernels_inl.h). Compiled only on x86-64, with
// -mavx2 (and -ffp-contract=off so the compiler cannot contract the
// explicit mul+add pairs into FMA — contraction would break the
// bit-exactness of the vector lanes against the scalar reference). The
// functions are only ever called through the dispatch table after
// __builtin_cpu_supports confirmed AVX2 at runtime, so this TU's codegen
// never executes on a pre-AVX2 machine.

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
  // max(a, b) with a kept on unordered (maxps returns its second operand)
  // — matches std::max's (a < b ? b : a) selection, signed zeros included.
  static Vec Max(Vec a, Vec b) { return _mm256_max_ps(b, a); }
  // min(a, b) with a kept on unordered, like std::min's (b < a ? b : a).
  static Vec Min(Vec a, Vec b) { return _mm256_min_ps(b, a); }
  // Rounds toward zero; exact, the bits of truncf per lane.
  static Vec Trunc(Vec v) {
    return _mm256_round_ps(v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  }
  // copysign(mag, sgn) for a mag whose sign bit is clear: ORs in sgn's
  // sign bit.
  static Vec CopySign(Vec mag, Vec sgn) {
    return _mm256_or_ps(_mm256_and_ps(sgn, _mm256_set1_ps(-0.0f)), mag);
  }
  // Stores the 8 lanes, integral values in [-127, 127], as int8: convert
  // (exact on integral values), then two saturating packs.
  static void StoreI8(int8_t* p, Vec v) {
    const __m256i q32 = _mm256_cvtps_epi32(v);
    const __m128i q16 = _mm_packs_epi32(_mm256_castsi256_si128(q32),
                                        _mm256_extracti128_si256(q32, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p), _mm_packs_epi16(q16, q16));
  }
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

  // Int8 GEMM steps: 16 int16 values fill one 256-bit vector, and
  // _mm256_madd_epi16 multiplies them pairwise and adds each adjacent pair
  // of products into one of 8 int32 lanes. The weights were widened to
  // int16 at pack time, so only the activation side is sign-extended here.
  using VecI16 = __m256i;
  using AccI32 = __m256i;
  static VecI16 WidenI8(const int8_t* p) {
    return _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static VecI16 LoadI16(const int16_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static AccI32 ZeroI32() { return _mm256_setzero_si256(); }
  static AccI32 MaddI16(AccI32 acc, VecI16 a, VecI16 b) {
    return _mm256_add_epi32(acc, _mm256_madd_epi16(a, b));
  }
  // hadd twice folds the four accumulators into [s0, s1, s2, s3] per
  // 128-bit half; adding the halves gives the four totals.
  static void FoldSums4(AccI32 a0, AccI32 a1, AccI32 a2, AccI32 a3,
                        int32_t* sums) {
    const __m256i t0 = _mm256_hadd_epi32(a0, a1);
    const __m256i t1 = _mm256_hadd_epi32(a2, a3);
    const __m256i t2 = _mm256_hadd_epi32(t0, t1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sums),
                     _mm_add_epi32(_mm256_castsi256_si128(t2),
                                   _mm256_extracti128_si256(t2, 1)));
  }
};

constexpr Kernels kAvx2Table = MakeKernels<Avx2Ops>(Level::kAvx2, "avx2");

}  // namespace

const Kernels* GetAvx2Kernels() { return &kAvx2Table; }

}  // namespace qpe::nn::simd

#endif  // QPE_HAVE_AVX2
