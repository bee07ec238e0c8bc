// NEON (AdvSIMD) kernel table, compiled only on aarch64. The TU is built
// with -ffp-contract=off and uses explicit vmulq/vaddq pairs — never
// vmlaq/vfmaq — so the vector lanes stay bit-identical to the scalar
// reference kernels.

#if defined(QPE_HAVE_NEON)

#include <arm_neon.h>

#include "nn/simd.h"
#include "nn/simd_kernels_inl.h"

namespace qpe::nn::simd {

namespace {

struct NeonOps {
  static constexpr int kLanes = 4;
  using Vec = float32x4_t;
  static Vec Load(const float* p) { return vld1q_f32(p); }
  static void Store(float* p, Vec v) { vst1q_f32(p, v); }
  static Vec Broadcast(float x) { return vdupq_n_f32(x); }
  static Vec Add(Vec a, Vec b) { return vaddq_f32(a, b); }
  static Vec Sub(Vec a, Vec b) { return vsubq_f32(a, b); }
  static Vec Mul(Vec a, Vec b) { return vmulq_f32(a, b); }
  static Vec Div(Vec a, Vec b) { return vdivq_f32(a, b); }
  static Vec Max(Vec a, Vec b) { return vmaxq_f32(a, b); }
  // Correctly rounded per IEEE 754, same bits as scalar sqrtf per lane.
  static Vec Sqrt(Vec v) { return vsqrtq_f32(v); }
  static float HMax(Vec v) { return vmaxvq_f32(v); }
  // All-ones mask where v > 0 (NaN lanes gate off), and a bitwise AND —
  // the pair turns BiasActBackwardT's branch into a mask.
  static Vec GtZero(Vec v) {
    return vreinterpretq_f32_u32(vcgtq_f32(v, vdupq_n_f32(0.0f)));
  }
  static Vec And(Vec a, Vec b) {
    return vreinterpretq_f32_u32(
        vandq_u32(vreinterpretq_u32_f32(a), vreinterpretq_u32_f32(b)));
  }
  // 4-lane expf, same Cephes-style reduction + degree-5 polynomial as the
  // AVX2 table (~2 ulp). Allowed to diverge from the scalar std::exp
  // reference under the epsilon contract; see simd_kernels_inl.h.
  static Vec Exp(Vec x) {
    x = vminq_f32(vmaxq_f32(x, vdupq_n_f32(-87.3365478515625f)),
                  vdupq_n_f32(88.3762626647949f));
    const Vec n = vrndnq_f32(vmulq_f32(x, vdupq_n_f32(1.44269504088896341f)));
    Vec r = vsubq_f32(x, vmulq_f32(n, vdupq_n_f32(0.693359375f)));
    r = vsubq_f32(r, vmulq_f32(n, vdupq_n_f32(-2.12194440e-4f)));
    Vec p = vdupq_n_f32(1.9875691500e-4f);
    p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(1.3981999507e-3f));
    p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(8.3334519073e-3f));
    p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(4.1665795894e-2f));
    p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(1.6666665459e-1f));
    p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(5.0000001201e-1f));
    p = vaddq_f32(vmulq_f32(vmulq_f32(p, r), r),
                  vaddq_f32(r, vdupq_n_f32(1.0f)));
    const int32x4_t pow2 =
        vshlq_n_s32(vaddq_s32(vcvtnq_s32_f32(n), vdupq_n_s32(127)), 23);
    return vmulq_f32(p, vreinterpretq_f32_s32(pow2));
  }
};

// Packed-tile int8 GEMM: one widened activation block feeds four
// multiply-accumulate-long dots against the four consecutive channel rows
// of the tile (pre-sign-extended to int16 at pack time, so the weight
// loads need no widening) — sequential weight reads, one vaddvq per
// channel per tile instead of per k-step. vmlal_s16 accumulates straight
// into int32 lanes, matching the op count of the old vmull_s8 + vpadal
// pair. Exact integer arithmetic, bit-identical to Int8GemmPackedRef.
void NeonInt8GemmPacked(const int8_t* a, const int16_t* bp, float* c, int m,
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
      int32x4_t acc0 = vdupq_n_s32(0);
      int32x4_t acc1 = vdupq_n_s32(0);
      int32x4_t acc2 = vdupq_n_s32(0);
      int32x4_t acc3 = vdupq_n_s32(0);
      for (int b = 0; b < kb; ++b) {
        const int8x16_t av = vld1q_s8(arow + b * kInt8TileK);
        const int16x8_t alo = vmovl_s8(vget_low_s8(av));
        const int16x8_t ahi = vmovl_s8(vget_high_s8(av));
        const int16_t* bb =
            btile + static_cast<size_t>(b) * (kInt8TileN * kInt8TileK);
        const int16x8_t b0l = vld1q_s16(bb);
        const int16x8_t b0h = vld1q_s16(bb + 8);
        const int16x8_t b1l = vld1q_s16(bb + kInt8TileK);
        const int16x8_t b1h = vld1q_s16(bb + kInt8TileK + 8);
        const int16x8_t b2l = vld1q_s16(bb + 2 * kInt8TileK);
        const int16x8_t b2h = vld1q_s16(bb + 2 * kInt8TileK + 8);
        const int16x8_t b3l = vld1q_s16(bb + 3 * kInt8TileK);
        const int16x8_t b3h = vld1q_s16(bb + 3 * kInt8TileK + 8);
        acc0 = vmlal_s16(acc0, vget_low_s16(alo), vget_low_s16(b0l));
        acc0 = vmlal_s16(acc0, vget_high_s16(alo), vget_high_s16(b0l));
        acc0 = vmlal_s16(acc0, vget_low_s16(ahi), vget_low_s16(b0h));
        acc0 = vmlal_s16(acc0, vget_high_s16(ahi), vget_high_s16(b0h));
        acc1 = vmlal_s16(acc1, vget_low_s16(alo), vget_low_s16(b1l));
        acc1 = vmlal_s16(acc1, vget_high_s16(alo), vget_high_s16(b1l));
        acc1 = vmlal_s16(acc1, vget_low_s16(ahi), vget_low_s16(b1h));
        acc1 = vmlal_s16(acc1, vget_high_s16(ahi), vget_high_s16(b1h));
        acc2 = vmlal_s16(acc2, vget_low_s16(alo), vget_low_s16(b2l));
        acc2 = vmlal_s16(acc2, vget_high_s16(alo), vget_high_s16(b2l));
        acc2 = vmlal_s16(acc2, vget_low_s16(ahi), vget_low_s16(b2h));
        acc2 = vmlal_s16(acc2, vget_high_s16(ahi), vget_high_s16(b2h));
        acc3 = vmlal_s16(acc3, vget_low_s16(alo), vget_low_s16(b3l));
        acc3 = vmlal_s16(acc3, vget_high_s16(alo), vget_high_s16(b3l));
        acc3 = vmlal_s16(acc3, vget_low_s16(ahi), vget_low_s16(b3h));
        acc3 = vmlal_s16(acc3, vget_high_s16(ahi), vget_high_s16(b3h));
      }
      const int32_t acc[kInt8TileN] = {vaddvq_s32(acc0), vaddvq_s32(acc1),
                                       vaddvq_s32(acc2), vaddvq_s32(acc3)};
      const int jmax = (n - t * kInt8TileN < kInt8TileN) ? n - t * kInt8TileN
                                                         : kInt8TileN;
      for (int ch = 0; ch < jmax; ++ch) {
        const int j = t * kInt8TileN + ch;
        float y = static_cast<float>(acc[ch]) * as * b_scale[j];
        if (bias != nullptr) y += bias[j];
        crow[j] = y;
      }
    }
  }
}

// 4-lane quantize: the exact trunc(t + copysign(0.5, t)) sequence of
// QuantizeOneRef lane by lane — every step an exact IEEE op.
void NeonQuantizeBuffer(const float* x, int n, float inv_scale, int8_t* out) {
  const float32x4_t vs = vdupq_n_f32(inv_scale);
  const uint32x4_t sign = vdupq_n_u32(0x80000000u);
  const float32x4_t half = vdupq_n_f32(0.5f);
  const float32x4_t hi = vdupq_n_f32(127.0f);
  const float32x4_t lo = vdupq_n_f32(-127.0f);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t t = vmulq_f32(vld1q_f32(x + i), vs);
    const float32x4_t h = vreinterpretq_f32_u32(vorrq_u32(
        vandq_u32(vreinterpretq_u32_f32(t), sign),
        vreinterpretq_u32_f32(half)));
    float32x4_t r = vrndq_f32(vaddq_f32(t, h));  // round toward zero
    r = vmaxq_f32(vminq_f32(r, hi), lo);
    const int32x4_t q32 = vcvtq_s32_f32(r);
    const int16x4_t q16 = vmovn_s32(q32);
    const int8x8_t q8 = vmovn_s16(vcombine_s16(q16, q16));
    out[i] = vget_lane_s8(q8, 0);
    out[i + 1] = vget_lane_s8(q8, 1);
    out[i + 2] = vget_lane_s8(q8, 2);
    out[i + 3] = vget_lane_s8(q8, 3);
  }
  for (; i < n; ++i) out[i] = QuantizeOneRef(x[i], inv_scale);
}

constexpr Kernels kNeonTable = MakeKernels<NeonOps>(
    Level::kNeon, "neon", &NeonInt8GemmPacked, &NeonQuantizeBuffer);

}  // namespace

const Kernels* GetNeonKernels() { return &kNeonTable; }

}  // namespace qpe::nn::simd

#endif  // QPE_HAVE_NEON
