#include <cmath>
#include <functional>
#include <vector>

#include "gtest/gtest.h"
#include "nn/loss.h"
#include "nn/simd.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace qpe::nn {
namespace {

// Binary cross entropy on probabilities, composed from autograd ops.
Tensor BceLoss(const Tensor& probability, const Tensor& target) {
  const Tensor pos = Mul(target, Log(probability));
  const Tensor one_minus_p = Sub(
      Tensor::Full(probability.rows(), probability.cols(), 1.0f), probability);
  const Tensor one_minus_t =
      Sub(Tensor::Full(target.rows(), target.cols(), 1.0f), target);
  const Tensor neg = Mul(one_minus_t, Log(one_minus_p));
  return Scale(Mean(Add(pos, neg)), -1.0f);
}

// Mean absolute error, composed from autograd ops.
Tensor L1Loss(const Tensor& prediction, const Tensor& target) {
  return Mean(Abs(Sub(prediction, target)));
}

// Pins the kernel dispatch to a level for a test's duration and restores
// the previous level on exit. The fused-vs-chain comparisons below are
// bitwise only at the scalar level (the chain ops use scalar std::exp;
// a vector table's exp lanes are polynomial under the epsilon contract).
class SimdLevelGuard {
 public:
  explicit SimdLevelGuard(simd::Level level)
      : previous_(simd::ActiveLevel()) {
    simd::ForceLevel(level);
  }
  ~SimdLevelGuard() { simd::ForceLevel(previous_); }

 private:
  simd::Level previous_;
};

// Numerical gradient check: compares autograd gradients of
// scalar_fn(inputs...) against central finite differences.
void CheckGradients(const std::vector<Tensor>& inputs,
                    const std::function<Tensor()>& scalar_fn,
                    float tolerance = 2e-2f) {
  Tensor loss = scalar_fn();
  ASSERT_EQ(loss.numel(), 1);
  for (Tensor input : inputs) input.ZeroGrad();
  loss.Backward();
  // Capture analytic gradients before perturbing values.
  std::vector<std::vector<float>> analytic;
  for (const Tensor& input : inputs) analytic.push_back(input.grad());

  const float eps = 1e-2f;
  for (size_t t = 0; t < inputs.size(); ++t) {
    Tensor input = inputs[t];
    for (int i = 0; i < input.numel(); ++i) {
      const float original = input.value()[i];
      input.value()[i] = original + eps;
      const float plus = scalar_fn().value()[0];
      input.value()[i] = original - eps;
      const float minus = scalar_fn().value()[0];
      input.value()[i] = original;
      const float numeric = (plus - minus) / (2 * eps);
      EXPECT_NEAR(analytic[t][i], numeric,
                  tolerance * std::max(1.0f, std::abs(numeric)))
          << "tensor " << t << " element " << i;
    }
  }
}

Tensor RandTensor(int rows, int cols, util::Rng* rng, float scale = 1.0f) {
  Tensor t = Tensor::Zeros(rows, cols, /*requires_grad=*/true);
  for (float& v : t.value()) {
    v = static_cast<float>(rng->Uniform(-scale, scale));
  }
  return t;
}

TEST(TensorTest, ConstructionShapes) {
  const Tensor t = Tensor::Zeros(3, 4);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.numel(), 12);
  EXPECT_FALSE(t.requires_grad());
  EXPECT_TRUE(Tensor::Scalar(2.0f, true).requires_grad());
}

TEST(TensorTest, MatMulForward) {
  const Tensor a = Tensor::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor b = Tensor::FromVector(3, 2, {7, 8, 9, 10, 11, 12});
  const Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154);
}

TEST(TensorTest, MatMulGradient) {
  util::Rng rng(1);
  Tensor a = RandTensor(3, 4, &rng);
  Tensor b = RandTensor(4, 2, &rng);
  CheckGradients({a, b}, [&]() { return Sum(MatMul(a, b)); });
}

TEST(TensorTest, AddBroadcastRowGradient) {
  util::Rng rng(2);
  Tensor a = RandTensor(3, 4, &rng);
  Tensor b = RandTensor(1, 4, &rng);
  CheckGradients({a, b}, [&]() { return Sum(Add(a, b)); });
}

TEST(TensorTest, SubBroadcastColGradient) {
  util::Rng rng(3);
  Tensor a = RandTensor(3, 4, &rng);
  Tensor b = RandTensor(3, 1, &rng);
  CheckGradients({a, b}, [&]() { return Sum(Square(Sub(a, b))); });
}

TEST(TensorTest, MulScalarBroadcastGradient) {
  util::Rng rng(4);
  Tensor a = RandTensor(2, 3, &rng);
  Tensor b = RandTensor(1, 1, &rng);
  CheckGradients({a, b}, [&]() { return Sum(Mul(a, b)); });
}

TEST(TensorTest, UnaryOpGradients) {
  util::Rng rng(5);
  Tensor a = RandTensor(2, 3, &rng);
  CheckGradients({a}, [&]() { return Sum(Tanh(a)); });
  CheckGradients({a}, [&]() { return Sum(Sigmoid(a)); });
  CheckGradients({a}, [&]() { return Sum(Square(a)); });
  CheckGradients({a}, [&]() { return Sum(Exp(a)); });
}

TEST(TensorTest, ReluGradientAwayFromKink) {
  Tensor a = Tensor::FromVector(1, 4, {-2, -1, 1, 2}, true);
  CheckGradients({a}, [&]() { return Sum(Relu(a)); });
}

TEST(TensorTest, LogSqrtGradientPositiveDomain) {
  util::Rng rng(6);
  Tensor a = Tensor::Zeros(2, 3, true);
  for (float& v : a.value()) v = static_cast<float>(rng.Uniform(0.5, 2.0));
  CheckGradients({a}, [&]() { return Sum(Log(a)); });
  CheckGradients({a}, [&]() { return Sum(Sqrt(a)); });
}

TEST(TensorTest, TransposeGradient) {
  util::Rng rng(7);
  Tensor a = RandTensor(2, 5, &rng);
  CheckGradients({a}, [&]() { return Sum(Square(Transpose(a))); });
}

TEST(TensorTest, SoftmaxRowsSumToOne) {
  util::Rng rng(8);
  const Tensor a = RandTensor(4, 6, &rng, 3.0f);
  const Tensor s = SoftmaxRows(a);
  for (int r = 0; r < 4; ++r) {
    float total = 0;
    for (int c = 0; c < 6; ++c) {
      total += s.at(r, c);
      EXPECT_GT(s.at(r, c), 0);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(TensorTest, SoftmaxGradient) {
  util::Rng rng(9);
  Tensor a = RandTensor(2, 4, &rng);
  Tensor w = RandTensor(2, 4, &rng);
  CheckGradients({a}, [&]() { return Sum(Mul(SoftmaxRows(a), w)); });
}

TEST(TensorTest, RowSumAndMeanGradient) {
  util::Rng rng(10);
  Tensor a = RandTensor(3, 4, &rng);
  CheckGradients({a}, [&]() { return Sum(Square(RowSum(a))); });
  CheckGradients({a}, [&]() { return Sum(Square(RowMean(a))); });
}

TEST(TensorTest, ConcatSliceGradient) {
  util::Rng rng(11);
  Tensor a = RandTensor(2, 3, &rng);
  Tensor b = RandTensor(2, 2, &rng);
  CheckGradients({a, b}, [&]() {
    const Tensor cat = ConcatCols({a, b});
    return Sum(Square(SliceCols(cat, 1, 3)));
  });
  CheckGradients({a, b}, [&]() {
    const Tensor cat = ConcatRows({SliceCols(a, 0, 2), b});
    return Sum(Square(SliceRows(cat, 1, 2)));
  });
}

TEST(TensorTest, GatherRowsGradientAccumulates) {
  Tensor table = Tensor::FromVector(3, 2, {1, 2, 3, 4, 5, 6}, true);
  const Tensor gathered = GatherRows(table, {0, 2, 0});
  EXPECT_FLOAT_EQ(gathered.at(0, 0), 1);
  EXPECT_FLOAT_EQ(gathered.at(1, 1), 6);
  Tensor loss = Sum(gathered);
  table.ZeroGrad();
  loss.Backward();
  // Row 0 gathered twice -> gradient 2; row 1 never -> 0; row 2 once -> 1.
  EXPECT_FLOAT_EQ(table.grad()[0], 2);
  EXPECT_FLOAT_EQ(table.grad()[2], 0);
  EXPECT_FLOAT_EQ(table.grad()[4], 1);
}

TEST(TensorTest, CrossEntropyMatchesManual) {
  const Tensor logits = Tensor::FromVector(2, 3, {1, 2, 3, 3, 2, 1}, true);
  const Tensor loss = CrossEntropy(logits, {2, 0});
  // Both rows have the target at the max logit with the same gaps.
  const float expected =
      -std::log(std::exp(3.0f) / (std::exp(1.0f) + std::exp(2.0f) + std::exp(3.0f)));
  EXPECT_NEAR(loss.value()[0], expected, 1e-5f);
}

TEST(TensorTest, CrossEntropyGradient) {
  util::Rng rng(12);
  Tensor logits = RandTensor(3, 4, &rng, 2.0f);
  CheckGradients({logits}, [&]() { return CrossEntropy(logits, {1, 3, 0}); });
}

TEST(TensorTest, LossGradients) {
  util::Rng rng(13);
  Tensor pred = RandTensor(3, 2, &rng);
  Tensor target = RandTensor(3, 2, &rng);
  target = target.Detach();
  CheckGradients({pred}, [&]() { return MseLoss(pred, target); });
  CheckGradients({pred}, [&]() { return L1Loss(pred, target); });
}

TEST(TensorTest, BceLossGradient) {
  util::Rng rng(14);
  Tensor logits = RandTensor(4, 1, &rng);
  Tensor target = Tensor::FromVector(4, 1, {1, 0, 1, 0});
  CheckGradients({logits},
                 [&]() { return BceLoss(Sigmoid(logits), target); });
}

TEST(TensorTest, ChainedGraphGradient) {
  // A deeper composite expression exercising shared subexpressions.
  util::Rng rng(15);
  Tensor w1 = RandTensor(3, 4, &rng);
  Tensor w2 = RandTensor(4, 2, &rng);
  Tensor x = RandTensor(2, 3, &rng);
  x = x.Detach();
  CheckGradients({w1, w2}, [&]() {
    const Tensor h = Tanh(MatMul(x, w1));
    const Tensor y = MatMul(h, w2);
    return Mean(Square(Add(y, Scale(y, 0.5f))));  // y used twice
  });
}

TEST(TensorTest, BackwardAccumulatesAcrossCalls) {
  Tensor a = Tensor::Scalar(2.0f, true);
  Tensor l1 = Square(a);
  l1.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 4.0f);
  Tensor l2 = Square(a);
  l2.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 8.0f);  // accumulated
  a.ZeroGrad();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0f);
}

TEST(TensorTest, DetachStopsGradient) {
  Tensor a = Tensor::Scalar(3.0f, true);
  const Tensor d = a.Detach();
  Tensor loss = Square(d);
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0f);
}

TEST(TensorTest, NoGradGraphForConstants) {
  const Tensor a = Tensor::Zeros(2, 2);
  const Tensor b = Tensor::Zeros(2, 2);
  const Tensor c = Add(a, b);
  EXPECT_FALSE(c.requires_grad());
}

TEST(TensorTest, DropoutTrainKeepsScale) {
  util::Rng rng(16);
  const Tensor a = Tensor::Full(100, 10, 1.0f);
  const Tensor d = Dropout(a, 0.5f, &rng);
  double total = 0;
  for (float v : d.value()) total += v;
  // E[sum] = numel; allow generous slack.
  EXPECT_NEAR(total / a.numel(), 1.0, 0.15);
}

TEST(TensorTest, ClipGradNorm) {
  Tensor a = Tensor::Scalar(10.0f, true);
  Tensor loss = Square(a);  // grad = 20
  loss.Backward();
  const float norm = ClipGradNorm({a}, 1.0f);
  EXPECT_NEAR(norm, 20.0f, 1e-4f);
  EXPECT_NEAR(a.grad()[0], 1.0f, 1e-5f);
}

TEST(TensorTest, DeepGraphBackwardDoesNotOverflowStack) {
  // 5000 chained ops — must not recurse.
  Tensor x = Tensor::Scalar(0.5f, true);
  Tensor y = x;
  for (int i = 0; i < 5000; ++i) y = AddScalar(y, 0.001f);
  Tensor loss = Square(y);
  loss.Backward();
  EXPECT_GT(x.grad()[0], 0.0f);
}

// --- Fused serving kernels --------------------------------------------------
//
// The fused kernels promise bit-identical forwards to the op chains they
// replace; these tests enforce exact (==) float equality, not tolerance.

TEST(FusedKernelTest, LayerNormRowsMatchesCompositeChainBitExact) {
  util::Rng rng(75);
  const Tensor x = RandTensor(6, 9, &rng);
  const Tensor gamma = RandTensor(1, 9, &rng);
  const Tensor beta = RandTensor(1, 9, &rng);
  const Tensor fused = LayerNormRows(x, gamma, beta);
  // The op chain LayerNorm::Forward used before the fused kernel existed.
  const Tensor mean = RowMean(x);
  const Tensor centered = Sub(x, mean);
  const Tensor var = RowMean(Square(centered));
  const Tensor inv_std = Sqrt(AddScalar(var, 1e-5f));
  const Tensor recip = Exp(Scale(Log(inv_std), -1.0f));
  const Tensor unfused = Add(Mul(Mul(centered, recip), gamma), beta);
  for (int i = 0; i < fused.numel(); ++i) {
    EXPECT_EQ(fused.value()[i], unfused.value()[i]) << "element " << i;
  }
}

TEST(FusedKernelTest, LayerNormRowsGradient) {
  util::Rng rng(76);
  const Tensor x = RandTensor(4, 6, &rng);
  const Tensor gamma = RandTensor(1, 6, &rng);
  const Tensor beta = RandTensor(1, 6, &rng);
  // Weighted sum so row gradients are not uniform.
  const Tensor w = RandTensor(6, 1, &rng);
  CheckGradients({x, gamma, beta},
                 [&]() { return Sum(MatMul(LayerNormRows(x, gamma, beta), w)); });
}

// Compares the fused packed attention (attention_forward_blocked on K/V
// repacked into head blocks) against the per-sequence, per-head op chain
// attention. tol == 0 demands bitwise equality (valid at the scalar
// dispatch level); a positive tol applies the epsilon contract (vector
// levels, where the kernel's exp lanes are polynomial). The ragged batch
// straddles the 8-query tile and the 12-key register block, with and
// without tails; head_dim 12 runs one context block and 5 two.
void CheckAttentionPackedAgainstChain(float tol) {
  util::Rng rng(79);
  struct Case {
    std::vector<int> lengths;
    int dh;
  };
  const Case cases[] = {{{5, 3}, 4}, {{1, 7, 12, 17, 40}, 5},
                        {{1, 7, 12, 17, 40}, 12}};
  const int num_heads = 2;
  for (const Case& tc : cases) {
    const int dh = tc.dh, dim = num_heads * dh;
    const std::vector<int>& lengths = tc.lengths;
    std::vector<int> offsets;
    int rows = 0;
    for (const int len : lengths) {
      offsets.push_back(rows);
      rows += len;
    }
    const Tensor q = RandTensor(rows, dim, &rng);
    const Tensor k = RandTensor(rows, dim, &rng);
    const Tensor v = RandTensor(rows, dim, &rng);
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
    const Tensor fused =
        MultiHeadAttentionPacked(q, k, v, offsets, lengths, num_heads, scale);
    for (size_t s = 0; s < lengths.size(); ++s) {
      const Tensor qs = SliceRows(q, offsets[s], lengths[s]);
      const Tensor ks = SliceRows(k, offsets[s], lengths[s]);
      const Tensor vs = SliceRows(v, offsets[s], lengths[s]);
      for (int h = 0; h < num_heads; ++h) {
        const Tensor qh = SliceCols(qs, h * dh, dh);
        const Tensor kh = SliceCols(ks, h * dh, dh);
        const Tensor vh = SliceCols(vs, h * dh, dh);
        const Tensor ctx =
            MatMul(SoftmaxRows(Scale(MatMul(qh, Transpose(kh)), scale)), vh);
        for (int i = 0; i < lengths[s]; ++i) {
          for (int c = 0; c < dh; ++c) {
            const float got = fused.at(offsets[s] + i, h * dh + c);
            const float want = ctx.at(i, c);
            if (tol == 0.0f) {
              EXPECT_EQ(got, want) << "head_dim " << dh << " seq " << s
                                   << " head " << h << " (" << i << "," << c
                                   << ")";
            } else {
              EXPECT_NEAR(got, want, tol)
                  << "head_dim " << dh << " seq " << s << " head " << h
                  << " (" << i << "," << c << ")";
            }
          }
        }
      }
    }
  }
}

TEST(FusedKernelTest, MultiHeadAttentionPackedMatchesChainBitExactScalar) {
  SimdLevelGuard guard(simd::Level::kScalar);
  CheckAttentionPackedAgainstChain(0.0f);
}

TEST(FusedKernelTest, MultiHeadAttentionPackedMatchesChainWithinEpsilon) {
  SimdLevelGuard guard(simd::HardwareLevel());
  CheckAttentionPackedAgainstChain(1e-6f);
}

TEST(FusedKernelTest, MultiHeadAttentionPackedGradient) {
  util::Rng rng(80);
  const int dim = 6, num_heads = 2;
  const std::vector<int> offsets = {0, 4};
  const std::vector<int> lengths = {4, 2};
  const Tensor q = RandTensor(6, dim, &rng);
  const Tensor k = RandTensor(6, dim, &rng);
  const Tensor v = RandTensor(6, dim, &rng);
  const Tensor w = RandTensor(dim, 1, &rng);
  const float scale = 1.0f / std::sqrt(3.0f);
  CheckGradients({q, k, v}, [&]() {
    return Sum(MatMul(
        MultiHeadAttentionPacked(q, k, v, offsets, lengths, num_heads, scale),
        w));
  });
}

}  // namespace
}  // namespace qpe::nn
