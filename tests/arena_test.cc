// Tests for the graph-epoch tensor arena: storage recycling across epochs,
// escape safety, the steady-state allocation-free property of the training
// hot loop, bit-exactness of arena-on vs arena-off and across thread
// counts, the fused Adam optimizer step, and the telemetry counters.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "data/features.h"
#include "data/plan_corpus.h"
#include "encoder/performance_encoder.h"
#include "encoder/ppsr.h"
#include "encoder/structure_encoder.h"
#include "gtest/gtest.h"
#include "nn/arena.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"
#include "util/thread_pool.h"

namespace qpe {
namespace {

using encoder::PerformanceEncoder;
using encoder::PpsrModel;
using encoder::TransformerPlanEncoder;

// Restores the single-thread default when a test body returns.
struct ThreadCountGuard {
  explicit ThreadCountGuard(int n) { util::SetMaxThreads(n); }
  ~ThreadCountGuard() { util::SetMaxThreads(1); }
};

// Flips the process-wide arena kill switch for a scope (the A/B lever for
// the arena-on vs arena-off equivalence tests).
struct ArenaEnabledGuard {
  explicit ArenaEnabledGuard(bool enabled)
      : previous_(nn::TensorArena::Enabled()) {
    nn::TensorArena::SetEnabled(enabled);
  }
  ~ArenaEnabledGuard() { nn::TensorArena::SetEnabled(previous_); }
  bool previous_;
};

// --- Recycling mechanics ----------------------------------------------------

TEST(TensorArenaTest, RecyclesBuffersAcrossEpochs) {
  if (!nn::TensorArena::RecyclingEnabled()) {
    GTEST_SKIP() << "recycling disabled in sanitizer builds";
  }
  nn::TensorArena arena;
  // The epoch mixes overwrite-style ops (Add/Scale) with an accumulating
  // MatMul, so both Fill::kOverwrite and Fill::kZero recycled buffers are
  // checked for correct contents on reuse.
  auto run_epoch = [&arena] {
    nn::ArenaScope scope(&arena);
    const nn::Tensor a = nn::Tensor::FromVector(2, 2, {1, 2, 3, 4});
    const nn::Tensor b = Scale(Add(a, a), 0.5f);
    const nn::Tensor c = MatMul(b, a);  // [[7,10],[15,22]]
    EXPECT_FLOAT_EQ(b.value()[3], 4.0f);
    EXPECT_FLOAT_EQ(c.value()[0], 7.0f);
    EXPECT_FLOAT_EQ(c.value()[3], 22.0f);
  };

  run_epoch();
  const nn::MemoryStats first = arena.stats();
  EXPECT_GT(first.arena_misses, 0u);
  EXPECT_GT(first.recycled_buffers, 0u);
  EXPECT_EQ(first.epochs, 1u);

  run_epoch();
  const nn::MemoryStats second = arena.stats();
  // Identical shapes: every buffer comes back out of the pools, so the
  // second epoch allocates nothing and produces the same values.
  EXPECT_EQ(second.arena_misses, first.arena_misses);
  EXPECT_GT(second.arena_hits, first.arena_hits);
  EXPECT_EQ(second.epochs, 2u);
}

TEST(TensorArenaTest, EscapedTensorSurvivesEpoch) {
  nn::TensorArena arena;
  nn::Tensor escaped;
  {
    nn::ArenaScope scope(&arena);
    const nn::Tensor a = nn::Tensor::FromVector(2, 2, {1, 2, 3, 4});
    escaped = Scale(a, 2.0f);
  }
  // The epoch ended while `escaped` still held a reference: the arena must
  // release the node (heap-owned from now on), never recycle it.
  ASSERT_EQ(escaped.value().size(), 4u);
  EXPECT_FLOAT_EQ(escaped.value()[0], 2.0f);
  EXPECT_FLOAT_EQ(escaped.value()[3], 8.0f);
  EXPECT_GE(arena.stats().released_buffers, 1u);
}

TEST(TensorArenaTest, ParametersNeverEnterTheArena) {
  nn::TensorArena arena;
  nn::ArenaScope scope(&arena);
  const nn::MemoryStats before = arena.stats();
  const nn::Tensor param = nn::Tensor::FromVector(4, 4, std::vector<float>(16),
                                                  /*requires_grad=*/true);
  const nn::MemoryStats after = arena.stats();
  EXPECT_TRUE(param.requires_grad());
  EXPECT_EQ(after.arena_hits, before.arena_hits);
  EXPECT_EQ(after.arena_misses, before.arena_misses);
}

TEST(TensorArenaTest, NestedScopeDoesNotFragmentTheEpoch) {
  nn::TensorArena arena;
  nn::ArenaScope outer(&arena);
  const nn::Tensor a = nn::Tensor::FromVector(1, 2, {1, 2});
  {
    // A nested default scope must not end the outer epoch: `a` is still
    // live, and recycling it mid-graph would corrupt the computation.
    nn::ArenaScope inner;
    const nn::Tensor b = Add(a, a);
    EXPECT_FLOAT_EQ(b.value()[1], 4.0f);
  }
  EXPECT_EQ(arena.stats().epochs, 0u);
  EXPECT_FLOAT_EQ(a.value()[0], 1.0f);
}

// --- Steady-state allocation-free training ---------------------------------

TEST(TensorArenaTest, TrainingLoopIsAllocationFreeAfterWarmup) {
  if (!nn::TensorArena::RecyclingEnabled()) {
    GTEST_SKIP() << "recycling disabled in sanitizer builds";
  }
  util::Rng rng(5);
  nn::Mlp mlp({8, 16, 16, 4}, nn::Activation::kRelu, nn::Activation::kNone,
              &rng);
  nn::Adam optimizer(mlp.Parameters(), 1e-3f);

  util::Rng data_rng(6);
  std::vector<float> x_data(4 * 8), y_data(4 * 4);
  for (float& v : x_data) v = static_cast<float>(data_rng.Uniform(-1.0, 1.0));
  for (float& v : y_data) v = static_cast<float>(data_rng.Uniform(-1.0, 1.0));

  nn::TensorArena arena;
  uint64_t misses_after_warmup = 0;
  constexpr int kSteps = 8;
  for (int step = 0; step < kSteps; ++step) {
    {
      nn::ArenaScope scope(&arena);
      const nn::Tensor x = nn::Tensor::FromVector(4, 8, x_data);
      const nn::Tensor y = nn::Tensor::FromVector(4, 4, y_data);
      nn::Tensor loss = Mean(Square(Sub(mlp.Forward(x), y)));
      optimizer.ZeroGrad();
      loss.Backward();
      optimizer.Step();
    }
    // The first step populates the pools; every later step must be served
    // entirely from recycled storage — the allocation-free hot loop this
    // arena exists for.
    if (step == 0) {
      misses_after_warmup = arena.stats().arena_misses;
      EXPECT_GT(misses_after_warmup, 0u);
    } else {
      EXPECT_EQ(arena.stats().arena_misses, misses_after_warmup)
          << "step " << step << " allocated fresh graph storage";
    }
  }
  EXPECT_EQ(arena.stats().epochs, static_cast<uint64_t>(kSteps));
}

// --- Bit-exactness: arena on vs off, threads 1 vs 4 -------------------------

encoder::StructureEncoderConfig TinyEncoderConfig() {
  encoder::StructureEncoderConfig config;
  config.level1_dim = 12;
  config.level2_dim = 6;
  config.level3_dim = 6;
  config.num_heads = 2;
  config.ff_dim = 32;
  config.num_layers = 1;
  config.max_len = 64;
  config.dropout = 0.1f;  // exercises the dropout-mask arena tensors
  return config;
}

struct PpsrRunResult {
  double final_loss = 0;
  double train_mae = 0;
  std::vector<float> embedding;
};

PpsrRunResult RunSmallPpsrTraining(int threads) {
  ThreadCountGuard guard(threads);
  data::PairDatasetOptions options;
  options.num_pairs = 24;
  options.corpus.min_nodes = 4;
  options.corpus.max_nodes = 12;
  const data::PlanPairDataset dataset = data::BuildCorpusPairDataset(options);

  util::Rng rng(14);
  PpsrModel model(
      std::make_unique<TransformerPlanEncoder>(TinyEncoderConfig(), &rng),
      &rng);
  encoder::PpsrTrainOptions train_options;
  train_options.epochs = 2;
  PpsrRunResult result;
  result.final_loss = TrainPpsr(&model, dataset.train, train_options);
  result.train_mae = EvaluatePpsrMae(model, dataset.train);
  data::CorpusOptions corpus;
  corpus.min_nodes = 4;
  corpus.max_nodes = 12;
  data::RandomPlanGenerator generator(util::Rng(7), corpus);
  const auto plan = generator.Generate();
  result.embedding = model.encoder()->Encode(*plan, nullptr).value();
  return result;
}

void ExpectPpsrRunsIdentical(const PpsrRunResult& a, const PpsrRunResult& b) {
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.train_mae, b.train_mae);
  ASSERT_EQ(a.embedding.size(), b.embedding.size());
  for (size_t i = 0; i < a.embedding.size(); ++i) {
    EXPECT_EQ(a.embedding[i], b.embedding[i]) << "embedding mismatch at " << i;
  }
}

TEST(ArenaBitExactnessTest, PpsrTrainingArenaOnEqualsArenaOff) {
  PpsrRunResult with_arena, without_arena;
  {
    ArenaEnabledGuard guard(true);
    with_arena = RunSmallPpsrTraining(1);
  }
  {
    ArenaEnabledGuard guard(false);
    without_arena = RunSmallPpsrTraining(1);
  }
  ExpectPpsrRunsIdentical(with_arena, without_arena);
}

TEST(ArenaBitExactnessTest, PpsrTrainingArenaOnThreadCountInvariant) {
  ArenaEnabledGuard guard(true);
  const PpsrRunResult t1 = RunSmallPpsrTraining(1);
  const PpsrRunResult t4 = RunSmallPpsrTraining(4);
  ExpectPpsrRunsIdentical(t1, t4);
}

data::OperatorDataset SyntheticPerfDataset() {
  data::OperatorDataset dataset;
  dataset.train.resize(48);
  util::Rng feature_rng(10);
  for (size_t i = 0; i < dataset.train.size(); ++i) {
    auto& sample = dataset.train[i];
    sample.node_features.resize(data::kNodeFeatureDim);
    sample.meta_features.resize(catalog::Catalog::kMetaFeatureDim);
    sample.db_features.resize(config::DbConfig::FeatureDim());
    for (double& v : sample.node_features) v = feature_rng.Uniform();
    for (double& v : sample.meta_features) v = feature_rng.Uniform();
    for (double& v : sample.db_features) v = feature_rng.Uniform();
    sample.actual_total_time_ms = 10.0 * (i % 7 + 1);
    sample.total_cost = 100.0 * (i % 5 + 1);
    sample.startup_cost = 1.0 * (i % 3 + 1);
  }
  return dataset;
}

encoder::PerfEncoderConfig TinyPerfConfig() {
  encoder::PerfEncoderConfig config;
  config.node_dim = data::kNodeFeatureDim;
  config.meta_dim = catalog::Catalog::kMetaFeatureDim;
  config.db_dim = config::DbConfig::FeatureDim();
  config.column_hidden = 16;
  config.embed_dim = 16;
  return config;
}

std::vector<float> RunSmallPerfTraining(int threads) {
  ThreadCountGuard guard(threads);
  const data::OperatorDataset dataset = SyntheticPerfDataset();
  util::Rng rng(22);
  PerformanceEncoder model(TinyPerfConfig(), &rng);
  encoder::PerfTrainOptions options;
  options.epochs = 2;
  const auto history = encoder::TrainPerformanceEncoder(&model, dataset, options);
  std::vector<float> flat;
  for (const auto& stats : history) {
    flat.push_back(static_cast<float>(stats.train_mae_ms));
  }
  std::vector<int> indices;
  for (int i = 0; i < 8; ++i) indices.push_back(i);
  const encoder::PerfBatch batch =
      encoder::MakePerfBatch(dataset.train, indices);
  const nn::Tensor pred =
      model.PredictLabels(model.Embed(batch.node, batch.meta, batch.db));
  flat.insert(flat.end(), pred.value().begin(), pred.value().end());
  return flat;
}

TEST(ArenaBitExactnessTest, PerfTrainingArenaOnEqualsArenaOff) {
  std::vector<float> with_arena, without_arena;
  {
    ArenaEnabledGuard guard(true);
    with_arena = RunSmallPerfTraining(1);
  }
  {
    ArenaEnabledGuard guard(false);
    without_arena = RunSmallPerfTraining(1);
  }
  ASSERT_EQ(with_arena.size(), without_arena.size());
  for (size_t i = 0; i < with_arena.size(); ++i) {
    EXPECT_EQ(with_arena[i], without_arena[i]) << "mismatch at " << i;
  }
}

TEST(ArenaBitExactnessTest, PerfTrainingArenaOnThreadCountInvariant) {
  ArenaEnabledGuard guard(true);
  const std::vector<float> t1 = RunSmallPerfTraining(1);
  const std::vector<float> t4 = RunSmallPerfTraining(4);
  ASSERT_EQ(t1.size(), t4.size());
  for (size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i], t4[i]) << "mismatch at " << i;
  }
}

// --- Fused optimizer step ---------------------------------------------------

// The pre-fusion reference update: separate moment, bias-correction, and
// parameter passes, with the arithmetic the fused loop must reproduce
// exactly.
void ReferenceAdamStep(std::vector<float>& value,
                       const std::vector<float>& grad, std::vector<float>& m,
                       std::vector<float>& v, int step_count, float lr,
                       float beta1, float beta2, float eps) {
  const float bias1 = 1.0f - std::pow(beta1, static_cast<float>(step_count));
  const float bias2 = 1.0f - std::pow(beta2, static_cast<float>(step_count));
  for (size_t j = 0; j < value.size(); ++j) {
    m[j] = beta1 * m[j] + (1.0f - beta1) * grad[j];
    v[j] = beta2 * v[j] + (1.0f - beta2) * grad[j] * grad[j];
    const float m_hat = m[j] / bias1;
    const float v_hat = v[j] / bias2;
    value[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

TEST(FusedOptimizerTest, AdamMatchesReferenceBitwise) {
  util::Rng rng(33);
  std::vector<float> init(24), grad1(24), grad2(24);
  for (float& x : init) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (float& x : grad1) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (float& x : grad2) x = static_cast<float>(rng.Uniform(-1.0, 1.0));

  nn::Tensor p = nn::Tensor::FromVector(4, 6, init, /*requires_grad=*/true);
  nn::Adam adam({p}, /*lr=*/0.01f);

  std::vector<float> ref_value = init;
  std::vector<float> ref_m(24, 0.0f), ref_v(24, 0.0f);
  int step = 0;
  for (const auto& grad : {grad1, grad2}) {
    p.ZeroGrad();
    for (size_t j = 0; j < grad.size(); ++j) p.grad()[j] = grad[j];
    adam.Step();
    ReferenceAdamStep(ref_value, grad, ref_m, ref_v, ++step, 0.01f, 0.9f,
                      0.999f, 1e-8f);
  }
  for (size_t j = 0; j < ref_value.size(); ++j) {
    EXPECT_EQ(p.value()[j], ref_value[j]) << "value mismatch at " << j;
  }
}

TEST(FusedOptimizerTest, AdamStateIsNotInterchangeableWithSgd) {
  // A checkpoint is outside input: a state exported under another kind is
  // refused by its tag even when its slots have Adam's exact shape, and
  // the refusal leaves the moments and step count as they were.
  nn::Tensor p = nn::Tensor::FromVector(1, 2, {1.0f, 2.0f}, true);
  nn::Adam adam({p}, 0.01f);
  p.grad()[0] = 0.5f;
  p.grad()[1] = -0.25f;
  adam.Step();
  const nn::OptimizerState before = adam.ExportState();
  EXPECT_EQ(before.kind, "adam");
  nn::OptimizerState foreign = before;
  foreign.kind = "sgd";
  foreign.step_count += 5;
  for (auto& slot : foreign.slots) {
    for (std::vector<float>& buffer : slot) {
      for (float& x : buffer) x += 1.0f;
    }
  }
  const util::Status status = adam.ImportState(foreign);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("kind"), std::string::npos);
  const nn::OptimizerState after = adam.ExportState();
  EXPECT_EQ(after.step_count, before.step_count);
  EXPECT_EQ(after.slots, before.slots);
  EXPECT_TRUE(adam.ImportState(before).ok());
}

// --- Telemetry --------------------------------------------------------------

TEST(MemoryStatsTest, CountersAccountForArenaTraffic) {
  nn::TensorArena arena;
  {
    nn::ArenaScope scope(&arena);
    const nn::Tensor a = nn::Tensor::FromVector(8, 8, std::vector<float>(64));
    const nn::Tensor b = Add(a, a);
    (void)b;
  }
  const nn::MemoryStats stats = arena.stats();
  EXPECT_GE(stats.bytes_requested, 2u * 64u * sizeof(float));
  EXPECT_EQ(stats.arena_hits + stats.arena_misses,
            stats.recycled_buffers + stats.released_buffers);
  EXPECT_EQ(stats.epochs, 1u);
  EXPECT_GT(stats.peak_arena_bytes, 0u);
}

TEST(MemoryStatsTest, GlobalStatsIncludeEveryArena) {
  const nn::MemoryStats before = nn::GlobalMemoryStats();
  nn::TensorArena arena;
  {
    nn::ArenaScope scope(&arena);
    const nn::Tensor a = nn::Tensor::FromVector(4, 4, std::vector<float>(16));
    (void)a;
  }
  const nn::MemoryStats after = nn::GlobalMemoryStats();
  EXPECT_GE(after.bytes_requested,
            before.bytes_requested + 16u * sizeof(float));
  EXPECT_GE(after.epochs, before.epochs + 1u);
}

TEST(MemoryStatsTest, PeakRssIsReported) {
  EXPECT_GT(nn::PeakRssBytes(), 0u);
}

}  // namespace
}  // namespace qpe
