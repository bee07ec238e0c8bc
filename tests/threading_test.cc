// Tests for the parallel compute layer: the thread pool itself, the
// autograd/threading primitives (GradientCapture, NoGradGuard), MatMul
// against the naive reference kernel, and — most importantly — the
// determinism contract: every parallel path must produce identical results
// for threads=1 and threads=N given the same seed.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "config/lhs_sampler.h"
#include "data/datasets.h"
#include "data/features.h"
#include "data/plan_corpus.h"
#include "encoder/performance_encoder.h"
#include "encoder/ppsr.h"
#include "encoder/structure_encoder.h"
#include "gtest/gtest.h"
#include "nn/parallel.h"
#include "nn/simd.h"
#include "nn/tensor.h"
#include "simdb/workload_runner.h"
#include "simdb/workloads.h"
#include "util/thread_pool.h"

namespace qpe {
namespace {

using encoder::PerformanceEncoder;
using encoder::PpsrModel;
using encoder::SparseAutoencoder;
using encoder::TransformerPlanEncoder;

// Restores the single-thread default when a test body returns.
struct ThreadCountGuard {
  explicit ThreadCountGuard(int n) { util::SetMaxThreads(n); }
  ~ThreadCountGuard() { util::SetMaxThreads(1); }
};

// --- ThreadPool / ParallelFor ---------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> counts(100);
  pool.Run(100, [&](int i) { counts[i].fetch_add(1); });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
  // The pool is reusable for further batches.
  pool.Run(100, [&](int i) { counts[i].fetch_add(1); });
  for (auto& c : counts) EXPECT_EQ(c.load(), 2);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  int count = 0;  // non-atomic: everything runs on this thread
  pool.Run(10, [&](int) { ++count; });
  EXPECT_EQ(count, 10);
}

TEST(ThreadPoolTest, NestedParallelRunExecutesInline) {
  ThreadCountGuard guard(4);
  std::atomic<int> total{0};
  util::ParallelRun(4, [&](int) {
    EXPECT_TRUE(util::InParallelRegion());
    util::ParallelRun(4, [&](int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16);
  EXPECT_FALSE(util::InParallelRegion());
}

TEST(ThreadPoolTest, SetMaxThreadsControlsKnob) {
  util::SetMaxThreads(3);
  EXPECT_EQ(util::MaxThreads(), 3);
  util::SetMaxThreads(1);
  EXPECT_EQ(util::MaxThreads(), 1);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadCountGuard guard(4);
  std::vector<std::atomic<int>> hits(1000);
  util::ParallelFor(1000, /*grain=*/16, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, RespectsGrain) {
  ThreadCountGuard guard(4);
  std::atomic<int> chunks{0};
  util::ParallelFor(100, /*grain=*/100, [&](int64_t begin, int64_t end) {
    chunks.fetch_add(1);
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 100);
  });
  EXPECT_EQ(chunks.load(), 1);
}

// --- GradientCapture / NoGradGuard ----------------------------------------

TEST(GradientCaptureTest, RedirectsTargetGradients) {
  nn::Tensor w = nn::Tensor::FromVector(2, 2, {1, 2, 3, 4}, true);
  nn::Tensor x = nn::Tensor::FromVector(2, 2, {5, 6, 7, 8});
  std::vector<std::vector<float>> buffers;
  {
    nn::GradientCapture capture({w}, &buffers);
    const nn::Tensor loss = Sum(Mul(w, x));
    loss.Backward();
  }
  // d(sum(w*x))/dw = x, all of it landing in the capture buffer, none in
  // the parameter's own grad storage.
  ASSERT_EQ(buffers.size(), 1u);
  ASSERT_EQ(buffers[0].size(), 4u);
  EXPECT_FLOAT_EQ(buffers[0][0], 5.0f);
  EXPECT_FLOAT_EQ(buffers[0][3], 8.0f);
  for (float g : w.grad()) EXPECT_EQ(g, 0.0f);
  // After the capture is gone, gradients accumulate normally again.
  Sum(Mul(w, x)).Backward();
  EXPECT_FLOAT_EQ(w.grad()[0], 5.0f);
}

TEST(NoGradGuardTest, SkipsGraphConstruction) {
  nn::Tensor w = nn::Tensor::FromVector(1, 3, {1, 2, 3}, true);
  nn::NoGradGuard no_grad;
  const nn::Tensor out = Scale(Relu(w), 2.0f);
  EXPECT_FALSE(out.requires_grad());
  EXPECT_FLOAT_EQ(out.value()[2], 6.0f);
}

TEST(ParallelGradientStepTest, MatchesSequentialAccumulation) {
  ThreadCountGuard guard(4);
  nn::Tensor w = nn::Tensor::FromVector(1, 4, {1, -2, 3, -4}, true);
  const std::vector<nn::Tensor> params = {w};

  // Reference: accumulate shard losses sequentially into w's grad.
  std::vector<float> expected(4, 0.0f);
  for (int s = 0; s < 8; ++s) {
    nn::Tensor x = nn::Tensor::Full(1, 4, static_cast<float>(s + 1));
    const nn::Tensor loss = Sum(Square(Mul(w, x)));
    w.ZeroGrad();
    loss.Backward();
    for (int i = 0; i < 4; ++i) expected[i] += w.grad()[i];
  }

  w.ZeroGrad();
  nn::ShardGradBuffers scratch;
  nn::ParallelGradientStep(
      params, 8,
      [&](int s) {
        nn::Tensor x = nn::Tensor::Full(1, 4, static_cast<float>(s + 1));
        return Sum(Square(Mul(w, x)));
      },
      &scratch);
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(w.grad()[i], expected[i]);
}

// --- MatMul vs the naive reference kernel ---------------------------------
//
// MatMulReference is the seed saxpy loop and shares no code with MatMul,
// which runs the dispatch table's linear_bias_act. The forward must match
// it bit for bit at the forced scalar level and at the hardware level, at
// 1 and 4 threads. A holds +0 and -0 entries (and one all-zero row), which
// the reference skips and the vector levels multiply; B holds -0 entries.
// The backward is checked within tolerance: matmul_backward_a sums each dA
// element in a register before adding it, the reference term by term.

uint32_t Bits(float v) {
  uint32_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void CheckMatMulAgainstReference(int m, int k, int n, int threads) {
  util::Rng rng(static_cast<uint64_t>(m * 10007 + k * 101 + n));
  std::vector<float> a_data(static_cast<size_t>(m) * k);
  std::vector<float> b_data(static_cast<size_t>(k) * n);
  for (float& v : a_data) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (float& v : b_data) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (size_t i = 0; i < a_data.size(); i += 7) a_data[i] = 0.0f;
  for (size_t i = 3; i < a_data.size(); i += 7) a_data[i] = -0.0f;
  for (size_t i = 2; i < b_data.size(); i += 5) b_data[i] = -0.0f;
  if (m > 1) {
    const size_t row = static_cast<size_t>(m / 2) * k;
    for (int p = 0; p < k; ++p) a_data[row + p] = p % 2 ? -0.0f : 0.0f;
  }

  nn::Tensor a2 = nn::Tensor::FromVector(m, k, a_data, true);
  nn::Tensor b2 = nn::Tensor::FromVector(k, n, b_data, true);
  const nn::Tensor out_ref = MatMulReference(a2, b2);
  Sum(Square(out_ref)).Backward();

  struct RestoreLevel {
    nn::simd::Level saved = nn::simd::ActiveLevel();
    ~RestoreLevel() { nn::simd::ForceLevel(saved); }
  } restore;
  for (const nn::simd::Level level :
       {nn::simd::Level::kScalar, nn::simd::HardwareLevel()}) {
    SCOPED_TRACE(nn::simd::LevelName(level));
    nn::simd::ForceLevel(level);
    ThreadCountGuard guard(threads);
    nn::Tensor a1 = nn::Tensor::FromVector(m, k, a_data, true);
    nn::Tensor b1 = nn::Tensor::FromVector(k, n, b_data, true);
    const nn::Tensor out = MatMul(a1, b1);
    ASSERT_EQ(out.rows(), m);
    ASSERT_EQ(out.cols(), n);
    for (int i = 0; i < m * n; ++i) {
      ASSERT_EQ(Bits(out.value()[i]), Bits(out_ref.value()[i]))
          << "forward mismatch at " << i << ": " << out.value()[i] << " vs "
          << out_ref.value()[i];
    }

    // Non-uniform upstream gradient so transpose bugs cannot cancel out.
    Sum(Square(out)).Backward();
    for (int i = 0; i < m * k; ++i) {
      EXPECT_NEAR(a1.grad()[i], a2.grad()[i],
                  1e-4 * (std::abs(a2.grad()[i]) + 1.0))
          << "dA mismatch at " << i;
    }
    for (int i = 0; i < k * n; ++i) {
      EXPECT_NEAR(b1.grad()[i], b2.grad()[i],
                  1e-4 * (std::abs(b2.grad()[i]) + 1.0))
          << "dB mismatch at " << i;
    }
  }
}

TEST(MatMulEquivalenceTest, SmallNonSquareSingleThread) {
  CheckMatMulAgainstReference(5, 3, 7, 1);
  CheckMatMulAgainstReference(35, 17, 23, 1);
}

TEST(MatMulEquivalenceTest, LargeAboveParallelThreshold) {
  // 2*64*130*70 flops crosses the parallel dispatch threshold, so the
  // kernels actually fan out to the pool at 4 threads.
  for (const int threads : {1, 4}) {
    CheckMatMulAgainstReference(64, 130, 70, threads);
    CheckMatMulAgainstReference(70, 64, 130, threads);
  }
}

TEST(MatMulEquivalenceTest, VectorShapes) {
  CheckMatMulAgainstReference(1, 48, 48, 1);   // row vector times matrix
  CheckMatMulAgainstReference(48, 48, 1, 4);   // matrix times column vector
}

// Widths that are not multiples of any vector width, so every row-tile
// remainder, column-tile branch and scalar tail runs; 129 x 64 x 129
// crosses the parallel threshold.
TEST(MatMulEquivalenceTest, OddShapes) {
  const int shapes[][3] = {{1, 1, 1},      {3, 7, 5},   {17, 48, 33},
                           {129, 64, 129}, {2, 3, 300}, {5, 129, 17}};
  for (const auto& s : shapes) {
    for (const int threads : {1, 4}) {
      CheckMatMulAgainstReference(s[0], s[1], s[2], threads);
    }
  }
}

TEST(MatMulDeterminismTest, ThreadCountInvariant) {
  util::Rng rng(77);
  std::vector<float> a_data(64 * 96), b_data(96 * 80);
  for (float& v : a_data) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (float& v : b_data) v = static_cast<float>(rng.Uniform(-1.0, 1.0));

  auto run = [&](int threads) {
    ThreadCountGuard guard(threads);
    nn::Tensor a = nn::Tensor::FromVector(64, 96, a_data, true);
    nn::Tensor b = nn::Tensor::FromVector(96, 80, b_data, true);
    const nn::Tensor out = MatMul(a, b);
    Sum(Square(out)).Backward();
    std::vector<float> flat = out.value();
    flat.insert(flat.end(), a.grad().begin(), a.grad().end());
    flat.insert(flat.end(), b.grad().begin(), b.grad().end());
    return flat;
  };

  const std::vector<float> t1 = run(1);
  const std::vector<float> t4 = run(4);
  ASSERT_EQ(t1.size(), t4.size());
  for (size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i], t4[i]) << "bitwise mismatch at " << i;
  }
}

// --- Training determinism: threads=1 vs threads=4 --------------------------

encoder::StructureEncoderConfig TinyEncoderConfig() {
  encoder::StructureEncoderConfig config;
  config.level1_dim = 12;
  config.level2_dim = 6;
  config.level3_dim = 6;
  config.num_heads = 2;
  config.ff_dim = 32;
  config.num_layers = 1;
  config.max_len = 64;
  config.dropout = 0.1f;  // exercises the per-shard dropout RNG forking
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

TEST(TrainingDeterminismTest, PpsrThreadCountInvariant) {
  const PpsrRunResult t1 = RunSmallPpsrTraining(1);
  const PpsrRunResult t4 = RunSmallPpsrTraining(4);
  EXPECT_EQ(t1.final_loss, t4.final_loss);
  EXPECT_EQ(t1.train_mae, t4.train_mae);
  ASSERT_EQ(t1.embedding.size(), t4.embedding.size());
  for (size_t i = 0; i < t1.embedding.size(); ++i) {
    EXPECT_EQ(t1.embedding[i], t4.embedding[i])
        << "embedding mismatch at " << i;
  }
}

data::OperatorDataset SmallScanDataset() {
  const simdb::TpchWorkload tpch(0.05);
  config::LhsSampler sampler((util::Rng(19)));
  const auto configs = sampler.Sample(4);
  simdb::RunOptions run_options;
  run_options.instances_per_template = 2;
  const auto executed =
      simdb::RunWorkloadTemplates(tpch, {0, 2, 5}, configs, run_options);
  auto samples = data::ExtractOperatorSamples(executed, tpch.GetCatalog(),
                                              plan::OperatorGroup::kScan);
  return data::SplitOperatorSamples(std::move(samples), 20);
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

struct PerfRunResult {
  std::vector<double> history_mae;
  std::vector<float> predictions;
};

PerfRunResult RunSmallPerfTraining(int threads) {
  ThreadCountGuard guard(threads);
  const data::OperatorDataset dataset = SmallScanDataset();
  util::Rng rng(22);
  PerformanceEncoder model(TinyPerfConfig(), &rng);
  encoder::PerfTrainOptions options;
  options.epochs = 3;
  const auto history = TrainPerformanceEncoder(&model, dataset, options);
  PerfRunResult result;
  for (const auto& stats : history) {
    result.history_mae.push_back(stats.train_mae_ms);
    result.history_mae.push_back(stats.val_mae_ms);
  }
  std::vector<int> indices;
  for (size_t i = 0; i < dataset.train.size() && i < 8; ++i) {
    indices.push_back(static_cast<int>(i));
  }
  const encoder::PerfBatch batch = encoder::MakePerfBatch(dataset.train, indices);
  const nn::Tensor pred =
      model.PredictLabels(model.Embed(batch.node, batch.meta, batch.db));
  result.predictions = pred.value();
  return result;
}

TEST(TrainingDeterminismTest, PerfEncoderThreadCountInvariant) {
  const PerfRunResult t1 = RunSmallPerfTraining(1);
  const PerfRunResult t4 = RunSmallPerfTraining(4);
  ASSERT_EQ(t1.history_mae.size(), t4.history_mae.size());
  for (size_t i = 0; i < t1.history_mae.size(); ++i) {
    EXPECT_EQ(t1.history_mae[i], t4.history_mae[i]) << "MAE mismatch at " << i;
  }
  ASSERT_EQ(t1.predictions.size(), t4.predictions.size());
  for (size_t i = 0; i < t1.predictions.size(); ++i) {
    EXPECT_EQ(t1.predictions[i], t4.predictions[i])
        << "prediction mismatch at " << i;
  }
}

std::vector<float> RunSparseAePretrain(int threads, int batch_size) {
  ThreadCountGuard guard(threads);
  data::CorpusOptions corpus;
  corpus.min_nodes = 4;
  corpus.max_nodes = 16;
  data::RandomPlanGenerator generator(util::Rng(42), corpus);
  std::vector<std::unique_ptr<plan::PlanNode>> plans;
  std::vector<const plan::PlanNode*> ptrs;
  for (int i = 0; i < 12; ++i) {
    plans.push_back(generator.Generate());
    ptrs.push_back(plans.back().get());
  }
  util::Rng rng(9);
  SparseAutoencoder autoencoder(8, &rng);
  EXPECT_TRUE(PretrainSparseAutoencoder(&autoencoder, ptrs, /*epochs=*/3,
                                        /*lr=*/5e-3f, /*seed=*/1, batch_size)
                  .ok());
  std::vector<float> flat;
  for (const nn::Tensor& p : autoencoder.Parameters()) {
    flat.insert(flat.end(), p.value().begin(), p.value().end());
  }
  return flat;
}

TEST(TrainingDeterminismTest, SparseAutoencoderThreadCountInvariant) {
  const std::vector<float> t1 = RunSparseAePretrain(1, /*batch_size=*/6);
  const std::vector<float> t4 = RunSparseAePretrain(4, /*batch_size=*/6);
  ASSERT_EQ(t1.size(), t4.size());
  for (size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i], t4[i]) << "parameter mismatch at " << i;
  }
}

// --- Data pipeline determinism ---------------------------------------------

TEST(DataDeterminismTest, PairLabelsThreadCountInvariant) {
  data::PairDatasetOptions options;
  options.num_pairs = 40;
  options.corpus.min_nodes = 4;
  options.corpus.max_nodes = 16;
  auto build = [&](int threads) {
    ThreadCountGuard guard(threads);
    return data::BuildCorpusPairDataset(options);
  };
  const data::PlanPairDataset t1 = build(1);
  const data::PlanPairDataset t4 = build(4);
  ASSERT_EQ(t1.train.size(), t4.train.size());
  for (size_t i = 0; i < t1.train.size(); ++i) {
    EXPECT_EQ(t1.train[i].smatch, t4.train[i].smatch)
        << "label mismatch at " << i;
  }
}

TEST(DataDeterminismTest, WorkloadRunnerThreadCountInvariant) {
  const simdb::TpchWorkload tpch(0.05);
  config::LhsSampler sampler((util::Rng(3)));
  const auto configs = sampler.Sample(3);
  simdb::RunOptions run_options;
  run_options.instances_per_template = 2;
  auto run = [&](int threads) {
    ThreadCountGuard guard(threads);
    return simdb::RunWorkloadTemplates(tpch, {0, 1, 4}, configs, run_options);
  };
  const auto t1 = run(1);
  const auto t4 = run(4);
  ASSERT_EQ(t1.size(), t4.size());
  for (size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].latency_ms, t4[i].latency_ms) << "latency at " << i;
    EXPECT_EQ(t1[i].template_index, t4[i].template_index);
    EXPECT_EQ(t1[i].instance_index, t4[i].instance_index);
  }
}

}  // namespace
}  // namespace qpe
