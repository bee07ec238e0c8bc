// NEON (AdvSIMD) kernel table: the NeonOps policy and its one MakeKernels
// line (the kernel bodies are in simd_kernels_inl.h). Compiled only on
// aarch64. The TU is built with -ffp-contract=off and the float steps use
// explicit vmulq/vaddq pairs — never vmlaq/vfmaq — so the vector lanes
// stay bit-identical to the scalar reference kernels.

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
  static Vec Min(Vec a, Vec b) { return vminq_f32(a, b); }
  // Rounds toward zero; exact, the bits of truncf per lane.
  static Vec Trunc(Vec v) { return vrndq_f32(v); }
  // copysign(mag, sgn) for a mag whose sign bit is clear: ORs in sgn's
  // sign bit.
  static Vec CopySign(Vec mag, Vec sgn) {
    return vreinterpretq_f32_u32(
        vorrq_u32(vandq_u32(vreinterpretq_u32_f32(sgn),
                            vdupq_n_u32(0x80000000u)),
                  vreinterpretq_u32_f32(mag)));
  }
  // Stores the 4 lanes, integral values in [-127, 127], as int8: convert
  // (exact on integral values), then two narrows, which the range keeps
  // exact.
  static void StoreI8(int8_t* p, Vec v) {
    const int16x4_t q16 = vmovn_s32(vcvtq_s32_f32(v));
    const int8x8_t q8 = vmovn_s16(vcombine_s16(q16, q16));
    p[0] = vget_lane_s8(q8, 0);
    p[1] = vget_lane_s8(q8, 1);
    p[2] = vget_lane_s8(q8, 2);
    p[3] = vget_lane_s8(q8, 3);
  }
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

  // Int8 GEMM steps: 16 int16 values are a pair of int16x8_t, and
  // vmlal_s16 multiplies 4 pairs at a time, accumulating straight into 4
  // int32 lanes. The weights were widened to int16 at pack time, so only
  // the activation side is sign-extended here.
  using VecI16 = int16x8x2_t;
  using AccI32 = int32x4_t;
  static VecI16 WidenI8(const int8_t* p) {
    const int8x16_t v = vld1q_s8(p);
    return {{vmovl_s8(vget_low_s8(v)), vmovl_s8(vget_high_s8(v))}};
  }
  static VecI16 LoadI16(const int16_t* p) {
    return {{vld1q_s16(p), vld1q_s16(p + 8)}};
  }
  static AccI32 ZeroI32() { return vdupq_n_s32(0); }
  static AccI32 MaddI16(AccI32 acc, VecI16 a, VecI16 b) {
    acc = vmlal_s16(acc, vget_low_s16(a.val[0]), vget_low_s16(b.val[0]));
    acc = vmlal_s16(acc, vget_high_s16(a.val[0]), vget_high_s16(b.val[0]));
    acc = vmlal_s16(acc, vget_low_s16(a.val[1]), vget_low_s16(b.val[1]));
    acc = vmlal_s16(acc, vget_high_s16(a.val[1]), vget_high_s16(b.val[1]));
    return acc;
  }
  static void FoldSums4(AccI32 a0, AccI32 a1, AccI32 a2, AccI32 a3,
                        int32_t* sums) {
    sums[0] = vaddvq_s32(a0);
    sums[1] = vaddvq_s32(a1);
    sums[2] = vaddvq_s32(a2);
    sums[3] = vaddvq_s32(a3);
  }
};

constexpr Kernels kNeonTable = MakeKernels<NeonOps>(Level::kNeon, "neon");

}  // namespace

const Kernels* GetNeonKernels() { return &kNeonTable; }

}  // namespace qpe::nn::simd

#endif  // QPE_HAVE_NEON
