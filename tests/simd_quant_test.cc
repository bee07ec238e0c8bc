// SIMD dispatch + int8 quantization tests: forced-scalar vs vectorized
// kernel parity at odd sizes (tail-lane handling), dispatch/env parsing,
// quantization round-trip, the fused LinearRowBias node, and the
// accuracy-delta gate for the int8 quantized plan encoder.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/plan_corpus.h"
#include "encoder/quantized_encoder.h"
#include "encoder/structure_encoder.h"
#include "gtest/gtest.h"
#include "nn/packed_forward.h"
#include "nn/quant.h"
#include "nn/simd.h"
#include "nn/tensor.h"
#include "nn/transformer.h"
#include "plan/plan_node.h"
#include "serve/embedding_service.h"
#include "util/rng.h"

namespace qpe {
namespace {

using nn::simd::Kernels;
using nn::simd::Level;

// Restores the dispatched kernel table on scope exit so a forced level
// never leaks into other tests.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : saved_(nn::simd::ActiveLevel()) {}
  ~SimdLevelGuard() { nn::simd::ForceLevel(saved_); }

 private:
  Level saved_;
};

std::vector<float> RandomVec(size_t n, util::Rng* rng, float scale = 1.0f) {
  std::vector<float> v(n);
  for (float& x : v) {
    x = scale * static_cast<float>(rng->Uniform() * 2.0 - 1.0);
  }
  return v;
}

// Epsilon contract for the float kernels: vector results must stay within
// tight relative error of the scalar reference. Most kernels are
// bit-identical by construction; the softmax/attention kernels use the
// allowance for their polynomial vector exp (~2 ulp vs std::exp), which
// is well inside this bound.
void ExpectAllNear(const std::vector<float>& a, const std::vector<float>& b,
                   float eps = 1e-6f) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const float tol = eps * (1.0f + std::fabs(a[i]));
    ASSERT_NEAR(a[i], b[i], tol) << "index " << i;
  }
}

// The vector table compiled into this binary (if the hardware supports
// it); null means scalar-only hardware, in which case parity tests
// trivially pass on the scalar table itself.
const Kernels* VectorTable() {
  return nn::simd::TableFor(nn::simd::HardwareLevel());
}

// --- Dispatch machinery -----------------------------------------------------

TEST(SimdDispatchTest, ParseLevel) {
  EXPECT_EQ(nn::simd::ParseLevel("0", Level::kAvx2), Level::kScalar);
  EXPECT_EQ(nn::simd::ParseLevel("scalar", Level::kAvx2), Level::kScalar);
  EXPECT_EQ(nn::simd::ParseLevel("off", Level::kAvx2), Level::kScalar);
  EXPECT_EQ(nn::simd::ParseLevel("avx2", Level::kScalar), Level::kAvx2);
  EXPECT_EQ(nn::simd::ParseLevel("neon", Level::kScalar), Level::kNeon);
  EXPECT_EQ(nn::simd::ParseLevel("1", Level::kAvx2), Level::kAvx2);
  EXPECT_EQ(nn::simd::ParseLevel("auto", Level::kNeon), Level::kNeon);
  EXPECT_EQ(nn::simd::ParseLevel("", Level::kAvx2), Level::kAvx2);
  EXPECT_EQ(nn::simd::ParseLevel(nullptr, Level::kScalar), Level::kScalar);
  EXPECT_EQ(nn::simd::ParseLevel("garbage", Level::kAvx2), Level::kAvx2);
}

TEST(SimdDispatchTest, ScalarTableAlwaysAvailable) {
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  ASSERT_NE(scalar, nullptr);
  EXPECT_EQ(scalar->level, Level::kScalar);
  EXPECT_STREQ(scalar->name, "scalar");
}

TEST(SimdDispatchTest, ActiveTableMatchesLevel) {
  EXPECT_EQ(nn::simd::K().level, nn::simd::ActiveLevel());
  EXPECT_STREQ(nn::simd::LevelName(nn::simd::ActiveLevel()),
               nn::simd::K().name);
}

TEST(SimdDispatchTest, ForceLevelClampsToAvailable) {
  SimdLevelGuard guard;
  // Scalar is always installable.
  EXPECT_EQ(nn::simd::ForceLevel(Level::kScalar), Level::kScalar);
  EXPECT_EQ(nn::simd::ActiveLevel(), Level::kScalar);
#if !defined(QPE_SANITIZE_BUILD)
  // Forcing the hardware's own level reinstalls it; forcing a level this
  // binary does not implement clamps to scalar.
  const Level hw = nn::simd::HardwareLevel();
  EXPECT_EQ(nn::simd::ForceLevel(hw), hw);
#if defined(QPE_HAVE_AVX2)
  EXPECT_EQ(nn::simd::ForceLevel(Level::kNeon), Level::kScalar);
#elif defined(QPE_HAVE_NEON)
  EXPECT_EQ(nn::simd::ForceLevel(Level::kAvx2), Level::kScalar);
#endif
#else
  // Sanitizer builds pin the dispatch to scalar regardless of request.
  EXPECT_EQ(nn::simd::ForceLevel(nn::simd::HardwareLevel()), Level::kScalar);
#endif
}

TEST(SimdDispatchTest, RequestAboveTheCpuResolvesToScalar) {
  // A binary that carries an AVX2 (or NEON) table may still run on a CPU
  // without that instruction set: a request for the level then resolves to
  // scalar instead of installing code the CPU cannot execute.
  EXPECT_EQ(nn::simd::ResolveLevel(Level::kAvx2, Level::kScalar),
            Level::kScalar);
  EXPECT_EQ(nn::simd::ResolveLevel(Level::kNeon, Level::kScalar),
            Level::kScalar);
  EXPECT_EQ(nn::simd::ResolveLevel(Level::kNeon, Level::kAvx2),
            Level::kScalar);
  EXPECT_EQ(nn::simd::ResolveLevel(Level::kAvx2, Level::kAvx2), Level::kAvx2);
  EXPECT_EQ(nn::simd::ResolveLevel(Level::kNeon, Level::kNeon), Level::kNeon);
  EXPECT_EQ(nn::simd::ResolveLevel(Level::kScalar, Level::kAvx2),
            Level::kScalar);
  EXPECT_EQ(nn::simd::ResolveLevel(Level::kScalar, Level::kScalar),
            Level::kScalar);
}

// --- Kernel parity: forced scalar vs vectorized, odd sizes ------------------
//
// Row/column counts deliberately include 1, 3, 17 and 129: not multiples of
// any vector width, so every kernel's tail-lane path executes.

TEST(SimdParityTest, LayerNormRows) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(44);
  for (const int m : {1, 3, 17, 129}) {
    for (const int n : {1, 3, 17, 48, 129}) {
      const std::vector<float> x =
          RandomVec(static_cast<size_t>(m) * n, &rng, 3.0f);
      const std::vector<float> gamma = RandomVec(n, &rng);
      const std::vector<float> beta = RandomVec(n, &rng);
      const float invn = 1.0f / static_cast<float>(n);
      std::vector<float> out_s(x.size()), out_v(x.size());
      scalar->layer_norm_rows(x.data(), gamma.data(), beta.data(),
                              out_s.data(), m, n, invn);
      vec->layer_norm_rows(x.data(), gamma.data(), beta.data(), out_v.data(),
                           m, n, invn);
      ExpectAllNear(out_s, out_v);
    }
  }
}

TEST(SimdParityTest, AttentionForwardPacked) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(46);
  struct Case {
    std::vector<int> lengths;
    int num_heads;
    int dim;
  };
  const Case cases[] = {
      {{1}, 1, 7},                 // single token, odd head dim
      {{3, 17, 1}, 4, 48},         // model-shaped heads, ragged batch
      {{29, 5}, 2, 24},            // odd lengths
      {{129}, 4, 48},              // long sequence crosses lane blocks
  };
  for (const Case& c : cases) {
    std::vector<int> offsets;
    int total = 0;
    for (const int len : c.lengths) {
      offsets.push_back(total);
      total += len;
    }
    const float scale =
        1.0f / std::sqrt(static_cast<float>(c.dim / c.num_heads));
    const std::vector<float> q =
        RandomVec(static_cast<size_t>(total) * c.dim, &rng);
    const std::vector<float> k =
        RandomVec(static_cast<size_t>(total) * c.dim, &rng);
    const std::vector<float> v =
        RandomVec(static_cast<size_t>(total) * c.dim, &rng);
    std::vector<float> kbt(q.size()), vb(q.size());
    nn::RepackHeadsKT(k.data(), total, c.dim, c.num_heads, kbt.data());
    nn::RepackHeadsVB(v.data(), total, c.dim, c.num_heads, vb.data());
    std::vector<float> out_s(q.size(), 0.0f), out_v(q.size(), 0.0f);
    const size_t max_len = static_cast<size_t>(
        *std::max_element(c.lengths.begin(), c.lengths.end()));
    std::vector<float> probs(max_len * max_len);
    scalar->attention_forward_blocked(
        q.data(), kbt.data(), vb.data(), out_s.data(), offsets.data(),
        c.lengths.data(), static_cast<int>(c.lengths.size()), c.num_heads,
        total, c.dim, scale, probs.data());
    vec->attention_forward_blocked(
        q.data(), kbt.data(), vb.data(), out_v.data(), offsets.data(),
        c.lengths.data(), static_cast<int>(c.lengths.size()), c.num_heads,
        total, c.dim, scale, probs.data());
    ExpectAllNear(out_s, out_v);
  }
}

// --- Backward kernel parity -------------------------------------------------
//
// The backward table's contract is stricter than the forward epsilon: every
// kernel except attention_backward_packed preserves the scalar accumulation
// order per gradient element, so scalar and vector tables must match BIT FOR
// BIT, including at adversarial odd shapes where only the tail lanes run.
// Gradient buffers accumulate (+=), so each case seeds both tables' buffers
// with identical random prior values to cover the accumulate path too.

// The GEMM kernels (linear_bias_act and both matmul backwards) run in
// register tiles of several rows by up to four vectors. Their sweeps cover
// every row-tile remainder (m = 1..9), the training batch (m = 100), and
// widths that take every column-tile branch and scalar tail at 4 and 8
// lanes, with inputs holding exact +0 and -0 entries (ReLU outputs) and
// row or p ranges split at positions that are not multiples of a tile. The
// vector table runs the split ranges and the scalar table one whole range:
// each element's terms and their order do not depend on the split.
constexpr int kGemmRows[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 100};
constexpr int kGemmWidths[] = {1, 3, 8, 12, 16, 24, 40, 48, 96, 97};

// About 30% +0 and 15% -0 entries, the rest uniform in (-1, 1).
std::vector<float> SparseVec(size_t n, util::Rng* rng) {
  std::vector<float> v = RandomVec(n, rng);
  for (float& x : v) {
    const double u = rng->Uniform();
    if (u < 0.30) {
      x = 0.0f;
    } else if (u < 0.45) {
      x = -0.0f;
    }
  }
  return v;
}

// [0, n) cut at 1, 6 and n / 2 + 1 where they fall inside it, in order.
// At the swept sizes no range but the first starts on a multiple of 4.
std::vector<int> SplitPoints(int n) {
  std::vector<int> cuts = {0};
  for (int c : {1, 6, n / 2 + 1}) {
    if (c > cuts.back() && c < n) cuts.push_back(c);
  }
  cuts.push_back(n);
  return cuts;
}

// Bit-for-bit equality, so -0 differs from +0.
void ExpectBitsEqual(const std::vector<float>& want,
                     const std::vector<float>& got, const char* what, int m,
                     int k, int n) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    uint32_t a = 0, b = 0;
    std::memcpy(&a, &want[i], sizeof(a));
    std::memcpy(&b, &got[i], sizeof(b));
    ASSERT_EQ(a, b) << what << " m=" << m << " k=" << k << " n=" << n
                    << " index " << i << ": " << want[i] << " vs " << got[i];
  }
}

TEST(SimdParityTest, LinearBiasActBitExact) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(50);
  for (int m : kGemmRows) {
    for (int k : kGemmWidths) {
      for (int n : kGemmWidths) {
        const std::vector<float> x =
            SparseVec(static_cast<size_t>(m) * k, &rng);
        const std::vector<float> w =
            RandomVec(static_cast<size_t>(k) * n, &rng);
        const std::vector<float> bias = RandomVec(n, &rng);
        // MatMul passes no bias and no ReLU.
        const float* const biases[] = {bias.data(), nullptr};
        for (const float* b : biases) {
          for (int relu : {0, 1}) {
            // Both outputs start as NaN: every element must be written.
            std::vector<float> y_s(static_cast<size_t>(m) * n,
                                   std::nanf(""));
            std::vector<float> y_v = y_s;
            scalar->linear_bias_act(x.data(), w.data(), b, y_s.data(), m, k,
                                    n, relu);
            const std::vector<int> cuts = SplitPoints(m);
            for (size_t c = 0; c + 1 < cuts.size(); ++c) {
              const size_t i0 = cuts[c];
              vec->linear_bias_act(x.data() + i0 * k, w.data(), b,
                                   y_v.data() + i0 * n,
                                   cuts[c + 1] - cuts[c], k, n, relu);
            }
            ASSERT_NO_FATAL_FAILURE(ExpectBitsEqual(
                y_s, y_v, relu ? "linear relu" : "linear", m, k, n));
          }
        }
      }
    }
  }
}

TEST(SimdParityTest, MatMulBackwardABitExact) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(51);
  for (int m : kGemmRows) {
    for (int k : kGemmWidths) {
      for (int n : kGemmWidths) {
        const std::vector<float> og =
            SparseVec(static_cast<size_t>(m) * n, &rng);
        // The kernel reads B [k, n] through its transpose bt [n, k].
        const std::vector<float> bt =
            RandomVec(static_cast<size_t>(n) * k, &rng);
        std::vector<float> ag_s = RandomVec(static_cast<size_t>(m) * k, &rng);
        std::vector<float> ag_v = ag_s;
        scalar->matmul_backward_a(og.data(), bt.data(), ag_s.data(), 0, m, k,
                                  n);
        // The sharded [i0, i1) entry point, at unaligned row splits.
        const std::vector<int> cuts = SplitPoints(m);
        for (size_t c = 0; c + 1 < cuts.size(); ++c) {
          vec->matmul_backward_a(og.data(), bt.data(), ag_v.data(), cuts[c],
                                 cuts[c + 1], k, n);
        }
        ASSERT_NO_FATAL_FAILURE(ExpectBitsEqual(ag_s, ag_v, "dA", m, k, n));
      }
    }
  }
}

TEST(SimdParityTest, MatMulBackwardBBitExact) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(52);
  for (int m : kGemmRows) {
    for (int k : kGemmWidths) {
      for (int n : kGemmWidths) {
        // The width-1 body skips aval == 0 terms and the vector body adds
        // them: +/-0 products must leave the (never -0) gradient unchanged,
        // whether it holds earlier terms or starts at +0 as in training.
        const std::vector<float> a =
            SparseVec(static_cast<size_t>(m) * k, &rng);
        const std::vector<float> og =
            SparseVec(static_cast<size_t>(m) * n, &rng);
        for (bool zero_start : {false, true}) {
          std::vector<float> bg_s =
              zero_start ? std::vector<float>(static_cast<size_t>(k) * n)
                         : RandomVec(static_cast<size_t>(k) * n, &rng);
          std::vector<float> bg_v = bg_s;
          scalar->matmul_backward_b(a.data(), og.data(), bg_s.data(), 0, k,
                                    m, k, n);
          // The op chain splits the p range across threads anywhere.
          const std::vector<int> cuts = SplitPoints(k);
          for (size_t c = 0; c + 1 < cuts.size(); ++c) {
            vec->matmul_backward_b(a.data(), og.data(), bg_v.data(), cuts[c],
                                   cuts[c + 1], m, k, n);
          }
          ASSERT_NO_FATAL_FAILURE(
              ExpectBitsEqual(bg_s, bg_v, "dB", m, k, n));
        }
      }
    }
  }
}

TEST(SimdParityTest, BiasActBackwardBitExact) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(53);
  for (const int m : {1, 3, 17, 129}) {
    for (const int n : {1, 3, 17, 48, 129}) {
      const size_t total = static_cast<size_t>(m) * n;
      // Forward output of a bias add and ReLU: nonnegative with exact
      // zeros where the pre-activation was clamped, so the > 0 gate sees
      // both branches.
      const std::vector<float> pre = RandomVec(total, &rng);
      const std::vector<float> bias = RandomVec(n, &rng, 0.25f);
      std::vector<float> ov(total);
      for (size_t i = 0; i < total; ++i) {
        const float y = pre[i] + bias[i % n];
        ov[i] = y > 0 ? y : 0.0f;
      }
      const std::vector<float> og = RandomVec(total, &rng);
      std::vector<float> ag_s = RandomVec(total, &rng), ag_v = ag_s;
      std::vector<float> bg_s = RandomVec(n, &rng), bg_v = bg_s;
      scalar->bias_act_backward(ov.data(), og.data(), ag_s.data(), bg_s.data(),
                                m, n);
      vec->bias_act_backward(ov.data(), og.data(), ag_v.data(), bg_v.data(), m,
                             n);
      for (size_t i = 0; i < total; ++i) {
        ASSERT_EQ(ag_s[i], ag_v[i]) << "ag " << i;
      }
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(bg_s[i], bg_v[i]) << "bg " << i;
      }
      // Nullable-gradient paths: ag only, then bg only.
      std::vector<float> ag2_s = ag_s, ag2_v = ag_v;
      scalar->bias_act_backward(ov.data(), og.data(), ag2_s.data(), nullptr, m,
                                n);
      vec->bias_act_backward(ov.data(), og.data(), ag2_v.data(), nullptr, m,
                             n);
      std::vector<float> bg2_s = bg_s, bg2_v = bg_v;
      scalar->bias_act_backward(ov.data(), og.data(), nullptr, bg2_s.data(), m,
                                n);
      vec->bias_act_backward(ov.data(), og.data(), nullptr, bg2_v.data(), m,
                             n);
      for (size_t i = 0; i < total; ++i) {
        ASSERT_EQ(ag2_s[i], ag2_v[i]) << "ag-only " << i;
      }
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(bg2_s[i], bg2_v[i]) << "bg-only " << i;
      }
    }
  }
}

TEST(SimdParityTest, LayerNormRowsBackwardBitExact) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(54);
  for (const int m : {1, 3, 17, 129}) {
    for (const int n : {1, 3, 17, 48, 129}) {
      const size_t total = static_cast<size_t>(m) * n;
      const std::vector<float> x = RandomVec(total, &rng, 3.0f);
      const std::vector<float> gamma = RandomVec(n, &rng);
      const std::vector<float> og = RandomVec(total, &rng);
      const float invn = 1.0f / static_cast<float>(n);
      std::vector<float> xg_s = RandomVec(total, &rng), xg_v = xg_s;
      std::vector<float> gg_s = RandomVec(n, &rng), gg_v = gg_s;
      std::vector<float> bg_s = RandomVec(n, &rng), bg_v = bg_s;
      scalar->layer_norm_rows_backward(x.data(), gamma.data(), og.data(),
                                       xg_s.data(), gg_s.data(), bg_s.data(),
                                       m, n, invn);
      vec->layer_norm_rows_backward(x.data(), gamma.data(), og.data(),
                                    xg_v.data(), gg_v.data(), bg_v.data(), m,
                                    n, invn);
      for (size_t i = 0; i < total; ++i) {
        ASSERT_EQ(xg_s[i], xg_v[i]) << "xg " << i;
      }
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(gg_s[i], gg_v[i]) << "gg " << i;
        ASSERT_EQ(bg_s[i], bg_v[i]) << "bg " << i;
      }
      // Input-grad-only path (frozen affine params).
      std::vector<float> xg2_s = xg_s, xg2_v = xg_v;
      scalar->layer_norm_rows_backward(x.data(), gamma.data(), og.data(),
                                       xg2_s.data(), nullptr, nullptr, m, n,
                                       invn);
      vec->layer_norm_rows_backward(x.data(), gamma.data(), og.data(),
                                    xg2_v.data(), nullptr, nullptr, m, n,
                                    invn);
      for (size_t i = 0; i < total; ++i) {
        ASSERT_EQ(xg2_s[i], xg2_v[i]) << "xg-only " << i;
      }
    }
  }
}

// One attention_backward_packed call on `table` over a packed batch of
// `lengths`, accumulating into copies of the prior gradients qg0/kg0/vg0.
// A null prior skips that gradient. The scratch starts as NaN, so a read
// of a scratch float the call did not write first poisons the result.
struct AttentionGrads {
  std::vector<float> qg, kg, vg;
};
AttentionGrads RunAttentionBackward(
    const Kernels* table, const std::vector<int>& lengths, int num_heads,
    int dim, const std::vector<float>& q, const std::vector<float>& k,
    const std::vector<float>& v, const std::vector<float>& og,
    const std::vector<float>* qg0, const std::vector<float>* kg0,
    const std::vector<float>* vg0) {
  std::vector<int> offsets;
  int total = 0;
  for (const int len : lengths) {
    offsets.push_back(total);
    total += len;
  }
  const size_t max_len =
      static_cast<size_t>(*std::max_element(lengths.begin(), lengths.end()));
  std::vector<float> scratch(2 * max_len * (max_len + dim / num_heads),
                             std::nanf(""));
  AttentionGrads g;
  if (qg0) g.qg = *qg0;
  if (kg0) g.kg = *kg0;
  if (vg0) g.vg = *vg0;
  auto ptr = [](std::vector<float>& x) {
    return x.empty() ? nullptr : x.data();
  };
  const float scale = 1.0f / std::sqrt(static_cast<float>(dim / num_heads));
  table->attention_backward_packed(
      q.data(), k.data(), v.data(), og.data(), ptr(g.qg), ptr(g.kg),
      ptr(g.vg), offsets.data(), lengths.data(),
      static_cast<int>(lengths.size()), num_heads, dim, scale,
      scratch.data());
  return g;
}

// Bitwise equality (memcmp, so -0 and +0 differ), naming the first
// differing index.
void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0) return;
  size_t i = 0;
  while (std::memcmp(&a[i], &b[i], sizeof(float)) == 0) ++i;
  ADD_FAILURE() << what << ": index " << i << " " << a[i] << " vs " << b[i];
}

std::vector<float> Rows(const std::vector<float>& x, int row0, int rows,
                        int dim) {
  return std::vector<float>(x.begin() + static_cast<size_t>(row0) * dim,
                            x.begin() + static_cast<size_t>(row0 + rows) * dim);
}

// Sweeps every tiling branch of the vector kernel: head_dim below one
// vector (3, 6), whole vectors (8, 16, 24 at AVX2; every one at NEON's 4
// lanes but 6) and an overlapping tail vector in each position (12, 20);
// lengths below one vector, around the 4-query tile and the key vector,
// and long — so remainder query rows, remainder keys, len < lanes and the
// tails all run. Gradient buffers start from random prior contents (the
// kernel accumulates).
TEST(SimdParityTest, AttentionBackwardPacked) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(56);
  const int num_heads = 2;
  for (const int head_dim : {3, 6, 8, 12, 16, 20, 24}) {
    const int dim = num_heads * head_dim;
    for (const int len : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33, 129}) {
      const std::vector<int> lengths = {len};
      const size_t size = static_cast<size_t>(len) * dim;
      const std::vector<float> q = RandomVec(size, &rng);
      const std::vector<float> k = RandomVec(size, &rng);
      const std::vector<float> v = RandomVec(size, &rng);
      const std::vector<float> og = RandomVec(size, &rng);
      const std::vector<float> qg0 = RandomVec(size, &rng);
      const std::vector<float> kg0 = RandomVec(size, &rng);
      const std::vector<float> vg0 = RandomVec(size, &rng);
      SCOPED_TRACE("head_dim " + std::to_string(head_dim) + " len " +
                   std::to_string(len));
      const AttentionGrads s = RunAttentionBackward(
          scalar, lengths, num_heads, dim, q, k, v, og, &qg0, &kg0, &vg0);
      const AttentionGrads w = RunAttentionBackward(
          vec, lengths, num_heads, dim, q, k, v, og, &qg0, &kg0, &vg0);
      // The recomputed softmax probabilities go through V::Exp, so
      // (exactly like the forward) cross-level equality is epsilon-gated
      // rather than bitwise.
      ExpectAllNear(s.qg, w.qg);
      ExpectAllNear(s.kg, w.kg);
      ExpectAllNear(s.vg, w.vg);
      // One gradient at a time (frozen projections upstream): within a
      // level, bitwise the same as that gradient of the full call.
      for (const Kernels* table : {scalar, vec}) {
        const AttentionGrads q_only = RunAttentionBackward(
            table, lengths, num_heads, dim, q, k, v, og, &qg0, nullptr,
            nullptr);
        const AttentionGrads k_only = RunAttentionBackward(
            table, lengths, num_heads, dim, q, k, v, og, nullptr, &kg0,
            nullptr);
        const AttentionGrads v_only = RunAttentionBackward(
            table, lengths, num_heads, dim, q, k, v, og, nullptr, nullptr,
            &vg0);
        const AttentionGrads& full = table == scalar ? s : w;
        const std::string name = table->name;
        ExpectBitwiseEqual(q_only.qg, full.qg, name + " qg-only");
        ExpectBitwiseEqual(k_only.kg, full.kg, name + " kg-only");
        ExpectBitwiseEqual(v_only.vg, full.vg, name + " vg-only");
      }
    }
  }
}

// One call over a ragged batch equals one call per sequence, bit for bit,
// at every level: the long sequences go first, so a shorter one that read
// scratch a longer one left behind would diverge.
TEST(SimdParityTest, AttentionBackwardPackedBatchEqualsPerSequence) {
  util::Rng rng(57);
  const std::vector<int> lengths = {129, 1, 33, 5, 17, 2, 9, 16, 3, 8, 4, 7,
                                    6};
  int total = 0;
  for (const int len : lengths) total += len;
  const int num_heads = 2;
  for (const int head_dim : {3, 6, 8, 12, 16, 20, 24}) {
    const int dim = num_heads * head_dim;
    const size_t size = static_cast<size_t>(total) * dim;
    const std::vector<float> q = RandomVec(size, &rng);
    const std::vector<float> k = RandomVec(size, &rng);
    const std::vector<float> v = RandomVec(size, &rng);
    const std::vector<float> og = RandomVec(size, &rng);
    const std::vector<float> qg0 = RandomVec(size, &rng);
    const std::vector<float> kg0 = RandomVec(size, &rng);
    const std::vector<float> vg0 = RandomVec(size, &rng);
    for (const Level level : {Level::kScalar, nn::simd::HardwareLevel()}) {
      const Kernels* table = nn::simd::TableFor(level);
      if (table == nullptr) continue;
      const AttentionGrads batch = RunAttentionBackward(
          table, lengths, num_heads, dim, q, k, v, og, &qg0, &kg0, &vg0);
      int row0 = 0;
      for (const int len : lengths) {
        auto rows = [&](const std::vector<float>& x) {
          return Rows(x, row0, len, dim);
        };
        const std::vector<float> qg1 = rows(qg0), kg1 = rows(kg0),
                                 vg1 = rows(vg0);
        const AttentionGrads one = RunAttentionBackward(
            table, {len}, num_heads, dim, rows(q), rows(k), rows(v), rows(og),
            &qg1, &kg1, &vg1);
        const std::string what = std::string(table->name) + " head_dim " +
                                 std::to_string(head_dim) + " len " +
                                 std::to_string(len);
        ExpectBitwiseEqual(rows(batch.qg), one.qg, "qg, " + what);
        ExpectBitwiseEqual(rows(batch.kg), one.kg, "kg, " + what);
        ExpectBitwiseEqual(rows(batch.vg), one.vg, "vg, " + what);
        row0 += len;
      }
    }
  }
}

// Dispatched ops keep producing the same bits when the level is forced
// down to scalar: the autograd kernels' contract with the rest of the repo.
TEST(SimdParityTest, DispatchedOpsBitIdenticalScalarVsVector) {
  SimdLevelGuard guard;
  util::Rng rng(48);
  const nn::Tensor a = nn::Tensor::Xavier(17, 23, &rng);
  const nn::Tensor b = nn::Tensor::Xavier(23, 9, &rng);
  const nn::Tensor bias = nn::Tensor::Xavier(1, 9, &rng);

  nn::simd::ForceLevel(nn::simd::HardwareLevel());
  const nn::Tensor vec_mm = MatMul(a, b);
  const nn::Tensor vec_lin = LinearRowBias(a, b, bias);
  nn::simd::ForceLevel(Level::kScalar);
  const nn::Tensor sc_mm = MatMul(a, b);
  const nn::Tensor sc_lin = LinearRowBias(a, b, bias);

  for (int i = 0; i < vec_mm.numel(); ++i) {
    ASSERT_EQ(vec_mm.value()[i], sc_mm.value()[i]);
    ASSERT_EQ(vec_lin.value()[i], sc_lin.value()[i]);
  }
}

// --- LinearRowBias ----------------------------------------------------------

// The forward oracle is the chain over MatMulReference, which shares no
// kernel with the fused node (MatMul runs the node's own linear_bias_act),
// at the forced scalar level and at the hardware level.
TEST(LinearRowBiasTest, ForwardBitIdenticalToChain) {
  SimdLevelGuard guard;
  util::Rng rng(49);
  const nn::Tensor x = nn::Tensor::Xavier(13, 29, &rng);
  const nn::Tensor w = nn::Tensor::Xavier(29, 11, &rng);
  const nn::Tensor bias = nn::Tensor::Xavier(1, 11, &rng);
  const nn::Tensor chain = Add(MatMulReference(x, w), bias);
  for (const Level level : {Level::kScalar, nn::simd::HardwareLevel()}) {
    nn::simd::ForceLevel(level);
    const nn::Tensor fused = LinearRowBias(x, w, bias);
    ASSERT_EQ(fused.rows(), chain.rows());
    ASSERT_EQ(fused.cols(), chain.cols());
    for (int i = 0; i < fused.numel(); ++i) {
      ASSERT_EQ(fused.value()[i], chain.value()[i])
          << nn::simd::LevelName(level) << " index " << i;
    }
  }
}

TEST(LinearRowBiasTest, BackwardMatchesChain) {
  util::Rng rng(50);
  const nn::Tensor x0 = nn::Tensor::Xavier(7, 19, &rng);
  const nn::Tensor w0 = nn::Tensor::Xavier(19, 5, &rng);
  const nn::Tensor b0 = nn::Tensor::Xavier(1, 5, &rng);
  const nn::Tensor xa = nn::Tensor::FromVector(7, 19, x0.value(), true);
  const nn::Tensor wa = nn::Tensor::FromVector(19, 5, w0.value(), true);
  const nn::Tensor ba = nn::Tensor::FromVector(1, 5, b0.value(), true);
  const nn::Tensor xb = nn::Tensor::FromVector(7, 19, x0.value(), true);
  const nn::Tensor wb = nn::Tensor::FromVector(19, 5, w0.value(), true);
  const nn::Tensor bb = nn::Tensor::FromVector(1, 5, b0.value(), true);
  Sum(LinearRowBias(xa, wa, ba)).Backward();
  Sum(Add(MatMul(xb, wb), bb)).Backward();
  for (int i = 0; i < xa.numel(); ++i) {
    ASSERT_EQ(xa.grad()[i], xb.grad()[i]) << "x grad " << i;
  }
  for (int i = 0; i < wa.numel(); ++i) {
    ASSERT_EQ(wa.grad()[i], wb.grad()[i]) << "w grad " << i;
  }
  for (int i = 0; i < ba.numel(); ++i) {
    ASSERT_EQ(ba.grad()[i], bb.grad()[i]) << "bias grad " << i;
  }
}

// --- LinearRowBiasRelu ------------------------------------------------------

TEST(LinearRowBiasReluTest, ForwardBitIdenticalToChain) {
  SimdLevelGuard guard;
  util::Rng rng(57);
  const nn::Tensor x = nn::Tensor::Xavier(13, 29, &rng);
  const nn::Tensor w = nn::Tensor::Xavier(29, 11, &rng);
  const nn::Tensor bias = nn::Tensor::Xavier(1, 11, &rng);
  const nn::Tensor chain = Relu(Add(MatMulReference(x, w), bias));
  for (const Level level : {Level::kScalar, nn::simd::HardwareLevel()}) {
    nn::simd::ForceLevel(level);
    const nn::Tensor fused = LinearRowBiasRelu(x, w, bias);
    ASSERT_EQ(fused.rows(), chain.rows());
    ASSERT_EQ(fused.cols(), chain.cols());
    for (int i = 0; i < fused.numel(); ++i) {
      ASSERT_EQ(fused.value()[i], chain.value()[i])
          << nn::simd::LevelName(level) << " index " << i;
    }
  }
}

TEST(LinearRowBiasReluTest, BackwardMatchesChain) {
  util::Rng rng(58);
  const nn::Tensor x0 = nn::Tensor::Xavier(7, 19, &rng);
  const nn::Tensor w0 = nn::Tensor::Xavier(19, 5, &rng);
  const nn::Tensor b0 = nn::Tensor::Xavier(1, 5, &rng);
  const nn::Tensor xa = nn::Tensor::FromVector(7, 19, x0.value(), true);
  const nn::Tensor wa = nn::Tensor::FromVector(19, 5, w0.value(), true);
  const nn::Tensor ba = nn::Tensor::FromVector(1, 5, b0.value(), true);
  const nn::Tensor xb = nn::Tensor::FromVector(7, 19, x0.value(), true);
  const nn::Tensor wb = nn::Tensor::FromVector(19, 5, w0.value(), true);
  const nn::Tensor bb = nn::Tensor::FromVector(1, 5, b0.value(), true);
  // Square the output so the upstream gradient is non-constant and signed:
  // the ReLU gate then has to zero real values, not just ones.
  Sum(Square(LinearRowBiasRelu(xa, wa, ba))).Backward();
  Sum(Square(Relu(LinearRowBias(xb, wb, bb)))).Backward();
  for (int i = 0; i < xa.numel(); ++i) {
    ASSERT_EQ(xa.grad()[i], xb.grad()[i]) << "x grad " << i;
  }
  for (int i = 0; i < wa.numel(); ++i) {
    ASSERT_EQ(wa.grad()[i], wb.grad()[i]) << "w grad " << i;
  }
  for (int i = 0; i < ba.numel(); ++i) {
    ASSERT_EQ(ba.grad()[i], bb.grad()[i]) << "bias grad " << i;
  }
}

// The fused node must also agree across dispatch levels (its backward
// routes through bias_act_backward + the matmul backward kernels).
TEST(LinearRowBiasReluTest, BitIdenticalScalarVsVector) {
  SimdLevelGuard guard;
  util::Rng rng(59);
  const nn::Tensor x0 = nn::Tensor::Xavier(17, 23, &rng);
  const nn::Tensor w0 = nn::Tensor::Xavier(23, 9, &rng);
  const nn::Tensor b0 = nn::Tensor::Xavier(1, 9, &rng);
  std::vector<float> value_by_level[2];
  std::vector<float> xg_by_level[2];
  const Level levels[2] = {nn::simd::HardwareLevel(), Level::kScalar};
  for (int li = 0; li < 2; ++li) {
    nn::simd::ForceLevel(levels[li]);
    const nn::Tensor x = nn::Tensor::FromVector(17, 23, x0.value(), true);
    const nn::Tensor w = nn::Tensor::FromVector(23, 9, w0.value(), true);
    const nn::Tensor b = nn::Tensor::FromVector(1, 9, b0.value(), true);
    const nn::Tensor out = LinearRowBiasRelu(x, w, b);
    Sum(out).Backward();
    value_by_level[li] = out.value();
    xg_by_level[li] = x.grad();
  }
  for (size_t i = 0; i < value_by_level[0].size(); ++i) {
    ASSERT_EQ(value_by_level[0][i], value_by_level[1][i]) << "value " << i;
  }
  for (size_t i = 0; i < xg_by_level[0].size(); ++i) {
    ASSERT_EQ(xg_by_level[0][i], xg_by_level[1][i]) << "x grad " << i;
  }
}

// --- Fused Adam update ------------------------------------------------------

// adam_step is elementwise with correctly rounded ops only, so every level
// must match the scalar reference bit for bit — parameter values, and both
// moment buffers, across several update steps.
TEST(SimdParityTest, AdamStepBitExact) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(60);
  const float lr = 2e-3f, beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
  for (const int n : {1, 5, 17, 129, 1000}) {
    std::vector<float> value_s = RandomVec(n, &rng);
    std::vector<float> m_s = RandomVec(n, &rng, 0.1f);
    std::vector<float> v_s(n);
    for (int i = 0; i < n; ++i) v_s[i] = rng.Uniform() * 0.01f;
    std::vector<float> value_v = value_s, m_v = m_s, v_v = v_s;
    for (int step = 1; step <= 3; ++step) {
      const std::vector<float> grad = RandomVec(n, &rng);
      const float bias1 = 1.0f - std::pow(beta1, static_cast<float>(step));
      const float bias2 = 1.0f - std::pow(beta2, static_cast<float>(step));
      scalar->adam_step(value_s.data(), grad.data(), m_s.data(), v_s.data(), n,
                        lr, beta1, beta2, eps, bias1, bias2);
      vec->adam_step(value_v.data(), grad.data(), m_v.data(), v_v.data(), n,
                     lr, beta1, beta2, eps, bias1, bias2);
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(value_s[i], value_v[i]) << "value " << i;
        ASSERT_EQ(m_s[i], m_v[i]) << "m " << i;
        ASSERT_EQ(v_s[i], v_v[i]) << "v " << i;
      }
    }
  }
}

// --- BatchLayout SoA --------------------------------------------------------

TEST(BatchLayoutTest, PositionsColumnMatchesLengths) {
  const nn::BatchLayout layout = nn::BatchLayout::FromLengths({3, 1, 4});
  EXPECT_EQ(layout.total_rows, 8);
  const std::vector<int> expected = {0, 1, 2, 0, 0, 1, 2, 3};
  EXPECT_EQ(layout.positions, expected);
  EXPECT_EQ(layout.offsets, (std::vector<int>{0, 3, 4}));
}

// --- Quantization primitives ------------------------------------------------

TEST(QuantTest, QuantizeValueRoundsAndSaturates) {
  EXPECT_EQ(nn::QuantizeValue(0.0f, 1.0f), 0);
  EXPECT_EQ(nn::QuantizeValue(1.4f, 1.0f), 1);
  EXPECT_EQ(nn::QuantizeValue(1.5f, 1.0f), 2);   // ties away from zero
  EXPECT_EQ(nn::QuantizeValue(-1.5f, 1.0f), -2);
  EXPECT_EQ(nn::QuantizeValue(1000.0f, 1.0f), 127);
  EXPECT_EQ(nn::QuantizeValue(-1000.0f, 1.0f), -127);  // symmetric: no -128
}

TEST(QuantTest, RoundTripErrorBoundedByHalfScale) {
  util::Rng rng(51);
  const std::vector<float> x = RandomVec(1000, &rng, 2.0f);
  float absmax = 0;
  for (const float v : x) absmax = std::max(absmax, std::fabs(v));
  const float scale = absmax / 127.0f;
  std::vector<int8_t> q(x.size());
  nn::simd::K().quantize_buffer(x.data(), static_cast<int>(x.size()),
                                1.0f / scale, q.data());
  for (size_t i = 0; i < x.size(); ++i) {
    const float dequant = static_cast<float>(q[i]) * scale;
    EXPECT_LE(std::fabs(dequant - x[i]), 0.5f * scale + 1e-6f) << "index " << i;
  }
}

TEST(QuantTest, CalibratorTracksAbsmax) {
  nn::QuantCalibrator cal;
  EXPECT_EQ(cal.absmax(), 0.0f);
  EXPECT_GE(cal.scale(), nn::kMinQuantScale);  // degenerate: floor, not 0
  const float chunk1[] = {0.5f, -2.0f, 1.0f};
  const float chunk2[] = {-0.25f, 1.5f};
  cal.Observe(chunk1, 3);
  cal.Observe(chunk2, 2);
  EXPECT_FLOAT_EQ(cal.absmax(), 2.0f);
  EXPECT_FLOAT_EQ(cal.scale(), 2.0f / 127.0f);
}

TEST(QuantTest, QuantizedLinearApproximatesFp32) {
  util::Rng rng(52);
  const int m = 9, in = 48, out = 33;
  const nn::Tensor w = nn::Tensor::Xavier(in, out, &rng);
  const nn::Tensor bias = nn::Tensor::Xavier(1, out, &rng);
  const std::vector<float> x = RandomVec(static_cast<size_t>(m) * in, &rng);
  nn::QuantCalibrator cal;
  cal.Observe(x.data(), x.size());
  const nn::QuantizedLinear q = nn::QuantizedLinear::FromLinear(
      w, bias, cal.scale());
  EXPECT_EQ(q.in_features(), in);
  EXPECT_EQ(q.out_features(), out);
  std::vector<float> y(static_cast<size_t>(m) * out);
  std::vector<int8_t> qx;
  q.Forward(x.data(), m, y.data(), &qx, /*relu=*/false);
  // fp32 reference.
  const std::vector<float>& wv = w.value();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < out; ++j) {
      float ref = bias.value()[j];
      for (int p = 0; p < in; ++p) {
        ref += x[static_cast<size_t>(i) * in + p] *
               wv[static_cast<size_t>(p) * out + j];
      }
      // Error budget: per-term quantization noise accumulated over `in`
      // products; loose analytic bound, tight in practice.
      const float tol = 0.02f + 0.02f * std::fabs(ref);
      EXPECT_NEAR(y[static_cast<size_t>(i) * out + j], ref, tol)
          << "(" << i << ", " << j << ")";
    }
  }
}

// --- Quantized plan encoder -------------------------------------------------

encoder::StructureEncoderConfig SmallConfig(int output_dim = 0) {
  encoder::StructureEncoderConfig config;
  config.level1_dim = 12;
  config.level2_dim = 6;
  config.level3_dim = 6;
  config.num_heads = 2;
  config.ff_dim = 32;
  config.num_layers = 2;
  config.max_len = 128;
  config.dropout = 0.0f;
  config.output_dim = output_dim;
  return config;
}

std::vector<std::unique_ptr<plan::PlanNode>> SamplePlans(int count,
                                                         uint64_t seed,
                                                         int max_nodes = 24) {
  data::CorpusOptions options;
  options.min_nodes = 4;
  options.max_nodes = max_nodes;
  data::RandomPlanGenerator generator(util::Rng(seed), options);
  std::vector<std::unique_ptr<plan::PlanNode>> plans;
  plans.reserve(count);
  for (int i = 0; i < count; ++i) plans.push_back(generator.Generate());
  return plans;
}

std::vector<const plan::PlanNode*> Pointers(
    const std::vector<std::unique_ptr<plan::PlanNode>>& plans) {
  std::vector<const plan::PlanNode*> ptrs;
  ptrs.reserve(plans.size());
  for (const auto& p : plans) ptrs.push_back(p.get());
  return ptrs;
}

double CosineDistance(const std::vector<float>& a, const std::vector<float>& b) {
  double dot = 0, na = 0, nb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na == 0 || nb == 0) return 1.0;
  return 1.0 - dot / (std::sqrt(na) * std::sqrt(nb));
}

// Accuracy-delta gate 1: quantization may not move any plan's embedding
// far from its fp32 twin (max cosine distance over a fresh evaluation set).
TEST(QuantizedEncoderTest, CosineDistanceToFp32WithinGate) {
  util::Rng rng(99);
  encoder::TransformerPlanEncoder fp32(SmallConfig(), &rng);
  fp32.SetTraining(false);
  const auto cal_plans = SamplePlans(24, 7001);
  const auto eval_plans = SamplePlans(32, 7002);
  const auto quantized = fp32.Quantize(Pointers(cal_plans));
  ASSERT_EQ(quantized->output_dim(), fp32.output_dim());
  EXPECT_EQ(quantized->num_quantized_sites(), 2 * 6);  // no projection
  const auto ptrs = Pointers(eval_plans);
  const auto fp32_out = fp32.EncodeBatch(ptrs, nullptr);
  const auto int8_out = quantized->EncodeBatch(ptrs, nullptr);
  ASSERT_EQ(fp32_out.size(), int8_out.size());
  double max_dist = 0;
  for (size_t i = 0; i < fp32_out.size(); ++i) {
    max_dist = std::max(
        max_dist, CosineDistance(fp32_out[i].value(), int8_out[i].value()));
  }
  // Gate: measured max ~1e-4 on this model; 0.01 leaves an order of
  // magnitude of headroom while still catching a broken scale or layout.
  EXPECT_LT(max_dist, 0.01);
}

// Accuracy-delta gate 2 (downstream proxy): nearest-neighbor structure of
// the embedding space survives quantization — for most plans, the fp32
// nearest neighbor stays the int8 nearest neighbor.
TEST(QuantizedEncoderTest, NearestNeighborAgreementWithinGate) {
  util::Rng rng(100);
  encoder::TransformerPlanEncoder fp32(SmallConfig(), &rng);
  fp32.SetTraining(false);
  const auto cal_plans = SamplePlans(24, 7003);
  const auto eval_plans = SamplePlans(40, 7004);
  const auto quantized = fp32.Quantize(Pointers(cal_plans));
  const auto ptrs = Pointers(eval_plans);
  const auto fp32_out = fp32.EncodeBatch(ptrs, nullptr);
  const auto int8_out = quantized->EncodeBatch(ptrs, nullptr);
  auto nearest = [](const std::vector<nn::Tensor>& embs, size_t i) {
    size_t best = i == 0 ? 1 : 0;
    double best_dist = 2.0;
    for (size_t j = 0; j < embs.size(); ++j) {
      if (j == i) continue;
      const double d = CosineDistance(embs[i].value(), embs[j].value());
      if (d < best_dist) {
        best_dist = d;
        best = j;
      }
    }
    return best;
  };
  int agree = 0;
  for (size_t i = 0; i < fp32_out.size(); ++i) {
    if (nearest(fp32_out, i) == nearest(int8_out, i)) ++agree;
  }
  // Gate: at least 80% top-1 neighbor agreement (measured: ~100%).
  EXPECT_GE(agree, static_cast<int>(0.8 * fp32_out.size()));
}

// The int8 engine is exact integer arithmetic per GEMM and row-independent
// everywhere else: a plan's embedding is the same bits alone or batched.
TEST(QuantizedEncoderTest, BatchedBitIdenticalToSingle) {
  util::Rng rng(101);
  encoder::TransformerPlanEncoder fp32(SmallConfig(16), &rng);  // + projection
  fp32.SetTraining(false);
  const auto cal_plans = SamplePlans(16, 7005);
  const auto eval_plans = SamplePlans(9, 7006);
  const auto quantized = fp32.Quantize(Pointers(cal_plans));
  EXPECT_EQ(quantized->num_quantized_sites(), 2 * 6 + 1);
  EXPECT_EQ(quantized->output_dim(), 16);
  const auto ptrs = Pointers(eval_plans);
  const auto batched = quantized->EncodeBatch(ptrs, nullptr);
  for (size_t i = 0; i < ptrs.size(); ++i) {
    const nn::Tensor single = quantized->Encode(*ptrs[i], nullptr);
    ASSERT_EQ(single.numel(), batched[i].numel());
    for (int c = 0; c < single.numel(); ++c) {
      ASSERT_EQ(single.value()[c], batched[i].value()[c])
          << "plan " << i << " col " << c;
    }
  }
  // And deterministic across repeated calls.
  const auto again = quantized->EncodeBatch(ptrs, nullptr);
  for (size_t i = 0; i < ptrs.size(); ++i) {
    for (int c = 0; c < batched[i].numel(); ++c) {
      ASSERT_EQ(batched[i].value()[c], again[i].value()[c]);
    }
  }
}

// Calibration observes every row of every layer. The engine runs its
// last layer CLS-only when no tape is recording, so wq there would see
// only the CLS rows of the normed input that wk and wv see in full; the
// three sites' scales must come out exactly equal, or the int8 engine
// stops sharing their quantized activations and the embeddings change.
TEST(QuantizedEncoderTest, LastLayerQkvScalesEqualAfterCalibration) {
  for (const int num_layers : {1, 2}) {
    util::Rng rng(104);
    encoder::StructureEncoderConfig config = SmallConfig();
    config.num_layers = num_layers;
    encoder::TransformerPlanEncoder fp32(config, &rng);
    fp32.SetTraining(false);
    const auto cal_plans = SamplePlans(16, 7010);
    const auto quantized = fp32.Quantize(Pointers(cal_plans));
    const std::vector<float> scales = quantized->input_scales();
    const int base = (num_layers - 1) * 6;  // last layer's wq, wk, wv
    ASSERT_GE(static_cast<int>(scales.size()), base + 3);
    EXPECT_EQ(scales[base + 0], scales[base + 1])
        << "wq vs wk, " << num_layers << " layers";
    EXPECT_EQ(scales[base + 0], scales[base + 2])
        << "wq vs wv, " << num_layers << " layers";
  }
}

// The quantized encoder slots into EmbeddingService unchanged (opt-in
// quantized serving = construct the service with the quantized encoder).
TEST(QuantizedEncoderTest, ServesThroughEmbeddingService) {
  util::Rng rng(102);
  encoder::TransformerPlanEncoder fp32(SmallConfig(), &rng);
  fp32.SetTraining(false);
  const auto cal_plans = SamplePlans(16, 7007);
  const auto eval_plans = SamplePlans(12, 7008);
  const auto quantized = fp32.Quantize(Pointers(cal_plans));
  serve::EmbeddingService service(quantized.get());
  const auto ptrs = Pointers(eval_plans);
  const auto served = service.EncodeAll(ptrs);
  const auto direct = quantized->EncodeBatch(ptrs, nullptr);
  ASSERT_EQ(served.size(), direct.size());
  for (size_t i = 0; i < served.size(); ++i) {
    for (int c = 0; c < served[i].numel(); ++c) {
      ASSERT_EQ(served[i].value()[c], direct[i].value()[c]);
    }
  }
  const serve::ServiceStats stats = service.GetStats();
  EXPECT_STREQ(stats.simd_level,
               nn::simd::LevelName(nn::simd::ActiveLevel()));
}

// Calibrated input scales are positive, finite, and cover every site.
TEST(QuantizedEncoderTest, CalibratedScalesAreSane) {
  util::Rng rng(103);
  encoder::TransformerPlanEncoder fp32(SmallConfig(), &rng);
  fp32.SetTraining(false);
  const auto cal_plans = SamplePlans(16, 7009);
  const auto quantized = fp32.Quantize(Pointers(cal_plans));
  const std::vector<float> scales = quantized->input_scales();
  ASSERT_EQ(static_cast<int>(scales.size()),
            quantized->num_quantized_sites());
  for (const float s : scales) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GE(s, nn::kMinQuantScale);
    EXPECT_LT(s, 100.0f);
  }
}

}  // namespace
}  // namespace qpe
