#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "gtest/gtest.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "nn/transformer.h"
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

TEST(LinearTest, ShapesAndParameterCount) {
  util::Rng rng(1);
  Linear layer(4, 3, &rng);
  int parameter_count = 0;
  for (const Tensor& p : layer.Parameters()) parameter_count += p.numel();
  EXPECT_EQ(parameter_count, 4 * 3 + 3);
  const Tensor y = layer.Forward(Tensor::Zeros(5, 4));
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 3);
}

TEST(MlpTest, LearnsLinearFunction) {
  util::Rng rng(2);
  Mlp mlp({2, 16, 1}, Activation::kRelu, Activation::kNone, &rng);
  Adam opt(mlp.Parameters(), 0.01f);
  // y = 2x0 - 3x1 + 1
  std::vector<float> xs, ys;
  for (int i = 0; i < 64; ++i) {
    const float x0 = static_cast<float>(rng.Uniform(-1, 1));
    const float x1 = static_cast<float>(rng.Uniform(-1, 1));
    xs.push_back(x0);
    xs.push_back(x1);
    ys.push_back(2 * x0 - 3 * x1 + 1);
  }
  const Tensor x = Tensor::FromVector(64, 2, xs);
  const Tensor y = Tensor::FromVector(64, 1, ys);
  float final_loss = 1e9f;
  for (int epoch = 0; epoch < 300; ++epoch) {
    const Tensor loss = MseLoss(mlp.Forward(x), y);
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
    final_loss = loss.value()[0];
  }
  EXPECT_LT(final_loss, 0.01f);
}

TEST(MlpTest, LearnsXor) {
  util::Rng rng(3);
  Mlp mlp({2, 8, 1}, Activation::kTanh, Activation::kSigmoid, &rng);
  Adam opt(mlp.Parameters(), 0.05f);
  const Tensor x = Tensor::FromVector(4, 2, {0, 0, 0, 1, 1, 0, 1, 1});
  const Tensor y = Tensor::FromVector(4, 1, {0, 1, 1, 0});
  for (int epoch = 0; epoch < 500; ++epoch) {
    const Tensor loss = BceLoss(mlp.Forward(x), y);
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
  }
  const Tensor pred = mlp.Forward(x);
  EXPECT_LT(pred.at(0, 0), 0.2f);
  EXPECT_GT(pred.at(1, 0), 0.8f);
  EXPECT_GT(pred.at(2, 0), 0.8f);
  EXPECT_LT(pred.at(3, 0), 0.2f);
}

TEST(EmbeddingTest, GathersAndTrains) {
  util::Rng rng(4);
  Embedding embedding(10, 4, &rng);
  const Tensor e = embedding.Forward({1, 5, 1});
  EXPECT_EQ(e.rows(), 3);
  EXPECT_EQ(e.cols(), 4);
  // Rows 0 and 2 identical (same token).
  for (int c = 0; c < 4; ++c) EXPECT_FLOAT_EQ(e.at(0, c), e.at(2, c));
}

TEST(LayerNormTest, NormalizesRows) {
  util::Rng rng(5);
  LayerNorm norm(8);
  Tensor x = Tensor::Zeros(3, 8);
  for (float& v : x.value()) v = static_cast<float>(rng.Uniform(-5, 5));
  const Tensor y = norm.Forward(x);
  for (int r = 0; r < 3; ++r) {
    float mean = 0, var = 0;
    for (int c = 0; c < 8; ++c) mean += y.at(r, c);
    mean /= 8;
    for (int c = 0; c < 8; ++c) var += (y.at(r, c) - mean) * (y.at(r, c) - mean);
    var /= 8;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(BatchNormTest, TrainNormalizesAndEvalUsesRunningStats) {
  util::Rng rng(6);
  BatchNorm1d norm(4);
  norm.SetTraining(true);
  Tensor x = Tensor::Zeros(32, 4);
  for (float& v : x.value()) v = static_cast<float>(rng.Uniform(5, 9));
  for (int i = 0; i < 50; ++i) norm.Forward(x);  // warm running stats
  const Tensor y_train = norm.Forward(x);
  float mean = 0;
  for (int r = 0; r < 32; ++r) mean += y_train.at(r, 0);
  EXPECT_NEAR(mean / 32, 0.0f, 1e-3f);

  norm.SetTraining(false);
  const Tensor y_eval = norm.Forward(SliceRows(x, 0, 1));
  // Eval output is near the train-normalized value for the same row.
  EXPECT_NEAR(y_eval.at(0, 0), y_train.at(0, 0), 0.3f);
}

TEST(ModuleTest, NamedParametersStable) {
  util::Rng rng(7);
  Mlp mlp({2, 4, 1}, Activation::kRelu, Activation::kNone, &rng);
  const auto named = mlp.NamedParameters();
  ASSERT_EQ(named.size(), 4u);
  EXPECT_EQ(named[0].first, "layer0.weight");
  EXPECT_EQ(named[1].first, "layer0.bias");
  EXPECT_EQ(named[2].first, "layer1.weight");
  EXPECT_EQ(named[3].first, "layer1.bias");
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  util::Rng rng(8);
  Mlp source({3, 8, 2}, Activation::kRelu, Activation::kNone, &rng);
  Mlp dest({3, 8, 2}, Activation::kRelu, Activation::kNone, &rng);
  std::string buffer;
  SaveModule(source, &buffer);
  ASSERT_TRUE(LoadModuleStatus(&dest, buffer).ok());
  const Tensor x = Tensor::FromVector(1, 3, {0.5f, -0.2f, 1.0f});
  const Tensor ys = source.Forward(x);
  const Tensor yd = dest.Forward(x);
  for (int c = 0; c < 2; ++c) EXPECT_FLOAT_EQ(ys.at(0, c), yd.at(0, c));
}

TEST(SerializeTest, ShapeMismatchRejected) {
  util::Rng rng(9);
  Mlp source({3, 8, 2}, Activation::kRelu, Activation::kNone, &rng);
  Mlp wrong({3, 9, 2}, Activation::kRelu, Activation::kNone, &rng);
  std::string buffer;
  SaveModule(source, &buffer);
  EXPECT_FALSE(LoadModuleStatus(&wrong, buffer).ok());
}

TEST(SerializeTest, NonFiniteWeightRejectedWithoutMutation) {
  util::Rng rng(11);
  Mlp source({3, 8, 2}, Activation::kRelu, Activation::kNone, &rng);
  Mlp dest({3, 8, 2}, Activation::kRelu, Activation::kNone, &rng);
  source.NamedParameters()[2].second.value()[5] =
      std::numeric_limits<float>::infinity();
  std::string buffer;
  SaveModule(source, &buffer);
  std::string before;
  SaveModule(dest, &before);
  const util::Status s = LoadModuleStatus(&dest, buffer);
  EXPECT_EQ(s.code(), util::StatusCode::kDataLoss) << s.ToString();
  EXPECT_NE(s.message().find("layer1.weight"), std::string::npos)
      << s.ToString();
  std::string after;
  SaveModule(dest, &after);
  EXPECT_EQ(after, before);
}

TEST(SerializeTest, CopyParameters) {
  util::Rng rng(10);
  Mlp source({2, 4, 1}, Activation::kRelu, Activation::kNone, &rng);
  Mlp dest({2, 4, 1}, Activation::kRelu, Activation::kNone, &rng);
  ASSERT_TRUE(CopyParameters(source, &dest));
  const Tensor x = Tensor::FromVector(1, 2, {1.0f, 2.0f});
  EXPECT_FLOAT_EQ(source.Forward(x).at(0, 0), dest.Forward(x).at(0, 0));
}

TEST(OptimizerTest, SgdReducesQuadratic) {
  // Plain gradient descent on Square's autograd gradient.
  Tensor w = Tensor::Scalar(5.0f, true);
  for (int i = 0; i < 100; ++i) {
    w.ZeroGrad();
    Square(w).Backward();
    w.value()[0] -= 0.1f * w.grad()[0];
  }
  EXPECT_NEAR(w.value()[0], 0.0f, 1e-3f);
}

TEST(OptimizerTest, AdamConvergesOnIllConditioned) {
  Tensor w = Tensor::FromVector(1, 2, {5.0f, 5.0f}, true);
  Adam opt({w}, 0.1f);
  const Tensor scale = Tensor::FromVector(1, 2, {100.0f, 0.01f});
  for (int i = 0; i < 500; ++i) {
    const Tensor loss = Sum(Mul(scale, Square(w)));
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.value()[0], 0.0f, 0.05f);
  EXPECT_NEAR(w.value()[1], 0.0f, 0.6f);
}

TEST(TransformerTest, AttentionShapePreserved) {
  util::Rng rng(11);
  MultiHeadSelfAttention attention(16, 4, &rng);
  const Tensor y = attention.Forward(Tensor::Zeros(7, 16));
  EXPECT_EQ(y.rows(), 7);
  EXPECT_EQ(y.cols(), 16);
}

TEST(TransformerTest, EncoderForwardAndGradFlow) {
  util::Rng rng(12);
  TransformerEncoder encoder(16, 4, 32, 2, 50, 0.0f, &rng);
  Tensor x = Tensor::Zeros(9, 16, /*requires_grad=*/true);
  for (float& v : x.value()) v = static_cast<float>(rng.Uniform(-1, 1));
  const Tensor y = encoder.Forward(x, nullptr);
  EXPECT_EQ(y.rows(), 9);
  EXPECT_EQ(y.cols(), 16);
  Tensor loss = Mean(Square(y));
  encoder.ZeroGrad();
  loss.Backward();
  float grad_norm = 0;
  for (const Tensor& p : encoder.Parameters()) {
    for (float g : p.grad()) grad_norm += g * g;
  }
  EXPECT_GT(grad_norm, 0.0f);
}

TEST(TransformerTest, LearnsToCountToken) {
  // Tiny sanity task: predict (scaled) count of token-1 embeddings in the
  // sequence from the first position's output.
  util::Rng rng(13);
  Embedding embedding(3, 8, &rng);
  TransformerEncoder encoder(8, 2, 16, 1, 20, 0.0f, &rng);
  Linear head(8, 1, &rng);
  std::vector<Tensor> params = embedding.Parameters();
  for (const Tensor& p : encoder.Parameters()) params.push_back(p);
  for (const Tensor& p : head.Parameters()) params.push_back(p);
  Adam opt(params, 0.01f);

  auto make_seq = [&](int count) {
    std::vector<int> tokens(10, 0);
    tokens[0] = 2;  // CLS-ish marker
    for (int i = 0; i < count; ++i) tokens[1 + i] = 1;
    return tokens;
  };
  float final_loss = 1e9f;
  for (int epoch = 0; epoch < 150; ++epoch) {
    Tensor total = Tensor::Scalar(0.0f);
    for (int count = 0; count <= 8; ++count) {
      const Tensor h = encoder.Forward(embedding.Forward(make_seq(count)),
                                       nullptr);
      const Tensor pred = head.Forward(SliceRows(h, 0, 1));
      const Tensor target = Tensor::Scalar(count / 8.0f);
      total = Add(total, Square(Sub(pred, target)));
    }
    const Tensor loss = Scale(total, 1.0f / 9.0f);
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
    final_loss = loss.value()[0];
  }
  EXPECT_LT(final_loss, 0.01f);
}

TEST(LstmTest, ShapesAndFinalState) {
  util::Rng rng(14);
  Lstm lstm(4, 6, &rng);
  Tensor x = Tensor::Zeros(5, 4);
  for (float& v : x.value()) v = static_cast<float>(rng.Uniform(-1, 1));
  const Tensor all = lstm.ForwardAll(x);
  EXPECT_EQ(all.rows(), 5);
  EXPECT_EQ(all.cols(), 6);
  const Tensor last = lstm.Forward(x);
  for (int c = 0; c < 6; ++c) EXPECT_FLOAT_EQ(last.at(0, c), all.at(4, c));
}

TEST(LstmTest, LearnsParity) {
  // Classic LSTM sanity check: parity of a bit sequence.
  util::Rng rng(15);
  Lstm lstm(1, 8, &rng);
  Linear head(8, 1, &rng);
  std::vector<Tensor> params = lstm.Parameters();
  for (const Tensor& p : head.Parameters()) params.push_back(p);
  Adam opt(params, 0.02f);
  float final_loss = 1e9f;
  for (int epoch = 0; epoch < 250; ++epoch) {
    util::Rng data_rng(100);  // fixed small dataset
    Tensor total = Tensor::Scalar(0.0f);
    const int kExamples = 16;
    for (int e = 0; e < kExamples; ++e) {
      const int len = 4;
      std::vector<float> bits(len);
      int parity = 0;
      for (int i = 0; i < len; ++i) {
        bits[i] = data_rng.Bernoulli(0.5) ? 1.0f : 0.0f;
        parity ^= static_cast<int>(bits[i]);
      }
      const Tensor x = Tensor::FromVector(len, 1, bits);
      const Tensor prob = Sigmoid(head.Forward(lstm.Forward(x)));
      const Tensor target = Tensor::Scalar(static_cast<float>(parity));
      total = Add(total, BceLoss(prob, target));
    }
    const Tensor loss = Scale(total, 1.0f / kExamples);
    opt.ZeroGrad();
    loss.Backward();
    ClipGradNorm(params, 5.0f);
    opt.Step();
    final_loss = loss.value()[0];
  }
  EXPECT_LT(final_loss, 0.15f);
}

}  // namespace
}  // namespace qpe::nn
