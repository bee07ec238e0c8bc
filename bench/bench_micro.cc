// Micro-benchmarks (google-benchmark) of the library's hot paths: Smatch
// scoring, plan linearization, plan-text parsing and fingerprinting,
// physical planning, executor simulation, encoder inference, MatMul kernels
// (blocked vs naive reference), and full training steps parameterised over
// the thread count.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "config/db_config.h"
#include "data/datasets.h"
#include "nn/packed_forward.h"
#include "nn/quant.h"
#include "nn/simd.h"
#include "data/features.h"
#include "data/plan_corpus.h"
#include "encoder/performance_encoder.h"
#include "encoder/ppsr.h"
#include "encoder/structure_encoder.h"
#include "nn/tensor.h"
#include "plan/fingerprint.h"
#include "plan/linearize.h"
#include "plan/serialize.h"
#include "simdb/executor.h"
#include "simdb/planner.h"
#include "simdb/workloads.h"
#include "smatch/smatch.h"
#include "util/thread_pool.h"

namespace {

std::unique_ptr<qpe::plan::PlanNode> MakePlan(int nodes, uint64_t seed) {
  qpe::data::CorpusOptions options;
  options.min_nodes = nodes;
  options.max_nodes = nodes + 4;
  qpe::data::RandomPlanGenerator generator(qpe::util::Rng(seed), options);
  return generator.Generate();
}

void BM_SmatchScore(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const auto a = MakePlan(nodes, 1);
  const auto b = MakePlan(nodes, 2);
  const auto fa = qpe::smatch::Flatten(*a);
  const auto fb = qpe::smatch::Flatten(*b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qpe::smatch::Score(fa, fb).f1);
  }
}
BENCHMARK(BM_SmatchScore)->Arg(10)->Arg(40)->Arg(100);

void BM_SmatchExact(benchmark::State& state) {
  const auto a = MakePlan(7, 3);
  const auto b = MakePlan(7, 4);
  const auto fa = qpe::smatch::Flatten(*a);
  const auto fb = qpe::smatch::Flatten(*b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qpe::smatch::ScoreExact(fa, fb).f1);
  }
}
BENCHMARK(BM_SmatchExact);

void BM_LinearizeDfsBracket(benchmark::State& state) {
  const auto plan = MakePlan(static_cast<int>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qpe::plan::LinearizeDfsBracket(*plan));
  }
}
BENCHMARK(BM_LinearizeDfsBracket)->Arg(20)->Arg(100);

// The serve_hot request pool's shape: 16 planned instances of every TPC-H
// template at scale 0.05 (about 1.7 KB of plan text and 9.7 nodes a plan).
std::vector<std::unique_ptr<qpe::plan::PlanNode>> TpchServePool() {
  const qpe::simdb::TpchWorkload tpch(0.05);
  const qpe::config::DbConfig db_config;
  const qpe::simdb::Planner planner(&tpch.GetCatalog(), &db_config);
  qpe::util::Rng rng(1);
  std::vector<std::unique_ptr<qpe::plan::PlanNode>> pool;
  for (int i = 0; i < 16; ++i) {
    for (int t = 0; t < tpch.NumTemplates(); ++t) {
      pool.push_back(
          std::move(planner.PlanQuery(tpch.Instantiate(t, &rng)).root));
    }
  }
  return pool;
}

// Wire text -> PlanNode, the first stage of every served plan.
void BM_ParsePlanNode(benchmark::State& state) {
  std::vector<std::string> texts;
  for (const auto& plan : TpchServePool()) {
    texts.push_back(qpe::plan::SerializePlanNode(*plan));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(qpe::plan::ParsePlanNode(texts[i]));
    i = i + 1 == texts.size() ? 0 : i + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParsePlanNode);

// The cache key of every served plan (linearize + hash).
void BM_FingerprintPlan(benchmark::State& state) {
  const auto pool = TpchServePool();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(qpe::plan::FingerprintPlan(*pool[i]));
    i = i + 1 == pool.size() ? 0 : i + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FingerprintPlan);

void BM_PlannerTpchQ5(benchmark::State& state) {
  qpe::simdb::TpchWorkload tpch(1.0);
  qpe::config::DbConfig db_config;
  qpe::simdb::Planner planner(&tpch.GetCatalog(), &db_config);
  qpe::util::Rng rng(6);
  const qpe::simdb::QuerySpec spec = tpch.Instantiate(4, &rng);  // Q5, 6-way
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.PlanQuery(spec).NumNodes());
  }
}
BENCHMARK(BM_PlannerTpchQ5);

void BM_ExecutorTpchQ5(benchmark::State& state) {
  qpe::simdb::TpchWorkload tpch(1.0);
  qpe::config::DbConfig db_config;
  qpe::simdb::Planner planner(&tpch.GetCatalog(), &db_config);
  qpe::simdb::ExecutorSim executor(&tpch.GetCatalog(), &db_config);
  qpe::util::Rng rng(6);
  const qpe::simdb::QuerySpec spec = tpch.Instantiate(4, &rng);
  qpe::util::Rng noise(1);
  for (auto _ : state) {
    qpe::plan::Plan planned = planner.PlanQuery(spec);
    benchmark::DoNotOptimize(
        executor.Execute(&planned, spec.cardinality_seed, &noise));
  }
}
BENCHMARK(BM_ExecutorTpchQ5);

void BM_StructureEncoderInference(benchmark::State& state) {
  qpe::util::Rng rng(7);
  qpe::encoder::StructureEncoderConfig config;
  qpe::encoder::TransformerPlanEncoder encoder(config, &rng);
  const auto plan = MakePlan(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Encode(*plan, nullptr).at(0, 0));
  }
}
BENCHMARK(BM_StructureEncoderInference)->Arg(20)->Arg(60);

void BM_PerfEncoderInference(benchmark::State& state) {
  qpe::util::Rng rng(9);
  qpe::encoder::PerformanceEncoder model({}, &rng);
  std::vector<qpe::data::OperatorSample> samples(state.range(0));
  for (auto& sample : samples) {
    sample.node_features.assign(qpe::data::kNodeFeatureDim, 0.1);
    sample.meta_features.assign(qpe::catalog::Catalog::kMetaFeatureDim, 0.2);
    sample.db_features.assign(qpe::config::DbConfig::FeatureDim(), 0.3);
  }
  std::vector<int> all(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) all[i] = static_cast<int>(i);
  for (auto _ : state) {
    const auto batch = qpe::encoder::MakePerfBatch(samples, all);
    benchmark::DoNotOptimize(
        model.PredictLabels(model.Embed(batch.node, batch.meta, batch.db))
            .at(0, 0));
  }
}
BENCHMARK(BM_PerfEncoderInference)->Arg(1)->Arg(32);

// --- MatMul kernels ---------------------------------------------------------

qpe::nn::Tensor RandomTensor(int rows, int cols, uint64_t seed,
                             bool requires_grad) {
  qpe::util::Rng rng(seed);
  std::vector<float> data(static_cast<size_t>(rows) * cols);
  for (float& v : data) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return qpe::nn::Tensor::FromVector(rows, cols, data, requires_grad);
}

// Forward + full backward (dA and dB) through the linear node's kernels
// (linear_bias_act, matmul_backward_a, matmul_backward_b).
// Args: {size, threads}.
void BM_MatMul(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  qpe::util::SetMaxThreads(static_cast<int>(state.range(1)));
  qpe::nn::Tensor a = RandomTensor(size, size, 11, /*requires_grad=*/true);
  qpe::nn::Tensor b = RandomTensor(size, size, 12, /*requires_grad=*/true);
  for (auto _ : state) {
    a.ZeroGrad();
    b.ZeroGrad();
    const qpe::nn::Tensor out = MatMul(a, b);
    Sum(out).Backward();
    benchmark::DoNotOptimize(a.grad()[0]);
  }
  // Forward plus two backward products, 2*n^3 flops each.
  state.SetItemsProcessed(state.iterations() * 3 * 2LL * size * size * size);
  qpe::util::SetMaxThreads(1);
}
BENCHMARK(BM_MatMul)
    ->Args({64, 1})
    ->Args({256, 1})
    ->Args({512, 1})
    ->Args({64, 4})
    ->Args({256, 4})
    ->Args({512, 4});

// Same workload through the naive reference kernel (always
// single-threaded): the baseline the dispatched kernels are measured against.
void BM_MatMulReference(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  qpe::util::SetMaxThreads(1);
  qpe::nn::Tensor a = RandomTensor(size, size, 11, /*requires_grad=*/true);
  qpe::nn::Tensor b = RandomTensor(size, size, 12, /*requires_grad=*/true);
  for (auto _ : state) {
    a.ZeroGrad();
    b.ZeroGrad();
    const qpe::nn::Tensor out = qpe::nn::MatMulReference(a, b);
    Sum(out).Backward();
    benchmark::DoNotOptimize(a.grad()[0]);
  }
  state.SetItemsProcessed(state.iterations() * 3 * 2LL * size * size * size);
}
BENCHMARK(BM_MatMulReference)->Arg(64)->Arg(256)->Arg(512);

// --- Fused kernels ----------------------------------------------------------

// Fused LayerNorm kernel vs the 8-op composite chain it replaced (both
// inference-mode forwards; the fused forward is bit-identical by contract).
void BM_LayerNormFused(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const int cols = 64;
  qpe::nn::NoGradGuard no_grad;
  const qpe::nn::Tensor x = RandomTensor(rows, cols, 21, false);
  const qpe::nn::Tensor gamma = RandomTensor(1, cols, 22, false);
  const qpe::nn::Tensor beta = RandomTensor(1, cols, 23, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LayerNormRows(x, gamma, beta).at(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_LayerNormFused)->Arg(16)->Arg(256);

void BM_LayerNormUnfused(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const int cols = 64;
  qpe::nn::NoGradGuard no_grad;
  const qpe::nn::Tensor x = RandomTensor(rows, cols, 21, false);
  const qpe::nn::Tensor gamma = RandomTensor(1, cols, 22, false);
  const qpe::nn::Tensor beta = RandomTensor(1, cols, 23, false);
  for (auto _ : state) {
    const qpe::nn::Tensor mean = RowMean(x);
    const qpe::nn::Tensor centered = Sub(x, mean);
    const qpe::nn::Tensor var = RowMean(Square(centered));
    const qpe::nn::Tensor inv_std = Sqrt(AddScalar(var, 1e-5f));
    const qpe::nn::Tensor recip = Exp(Scale(Log(inv_std), -1.0f));
    benchmark::DoNotOptimize(
        Add(Mul(Mul(centered, recip), gamma), beta).at(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_LayerNormUnfused)->Arg(16)->Arg(256);

// Row softmax through the autograd op (SoftmaxRows).
void BM_SoftmaxRowsUnmasked(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const int cols = 64;
  qpe::nn::NoGradGuard no_grad;
  const qpe::nn::Tensor a = RandomTensor(rows, cols, 26, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SoftmaxRows(a).at(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_SoftmaxRowsUnmasked)->Arg(16)->Arg(256);

// --- SIMD kernel dispatch ---------------------------------------------------
//
// Each pair drives the same kernel table entry once through the scalar
// reference table and once through the best table this hardware dispatches
// (on scalar-only machines both rows measure the scalar kernel, so the
// pair reads as 1.0x rather than failing). The kernels are called directly
// — no autograd graph — so the pair isolates the vectorization win itself.

const qpe::nn::simd::Kernels& ScalarKernels() {
  return *qpe::nn::simd::TableFor(qpe::nn::simd::Level::kScalar);
}

const qpe::nn::simd::Kernels& BestKernels() {
  return *qpe::nn::simd::TableFor(qpe::nn::simd::HardwareLevel());
}

std::vector<float> RandomBuffer(size_t n, uint64_t seed) {
  qpe::util::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return v;
}

// The three GEMMs of the packed training step at its shapes: m = 100 rows
// and (k, n) = (48, 48) for the attention projections, (48, 96) for ff1
// and (96, 48) for ff2. ff2's input is a ReLU output, so where a kernel
// reads an activation of width 96 it is half exact zeros. Args: {m, k, n}.
void TrainingGemmShapes(benchmark::internal::Benchmark* b) {
  b->Args({100, 48, 48})->Args({100, 48, 96})->Args({100, 96, 48});
}

std::vector<float> ActivationBuffer(int m, int k, uint64_t seed) {
  std::vector<float> x = RandomBuffer(static_cast<size_t>(m) * k, seed);
  if (k == 96) {
    for (float& v : x) v = std::max(v, 0.0f);
  }
  return x;
}

// Y = act(X * W + b), the one forward linear: the packed forward's sites and
// the op chain's MatMul and Linear layers.
void LinearBiasActKernel(benchmark::State& state,
                         const qpe::nn::simd::Kernels& kern) {
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  const std::vector<float> x = ActivationBuffer(m, k, 42);
  const std::vector<float> w = RandomBuffer(static_cast<size_t>(k) * n, 43);
  const std::vector<float> bias = RandomBuffer(n, 44);
  std::vector<float> y(static_cast<size_t>(m) * n);
  for (auto _ : state) {
    kern.linear_bias_act(x.data(), w.data(), bias.data(), y.data(), m, k, n,
                         /*relu=*/1);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
  state.SetLabel(kern.name);
}
void BM_LinearBiasActScalar(benchmark::State& state) {
  LinearBiasActKernel(state, ScalarKernels());
}
void BM_LinearBiasActSimd(benchmark::State& state) {
  LinearBiasActKernel(state, BestKernels());
}
// Plus the serving batch shape and one square GEMM, as MatMul and the
// Linear layers run them.
BENCHMARK(BM_LinearBiasActScalar)
    ->Apply(TrainingGemmShapes)
    ->Args({256, 48, 48})
    ->Args({256, 256, 256});
BENCHMARK(BM_LinearBiasActSimd)
    ->Apply(TrainingGemmShapes)
    ->Args({256, 48, 48})
    ->Args({256, 256, 256});

// dX += dY * W^T over the caller's transpose of W, into a zeroed dX as
// the step does.
void MatMulBackwardAKernel(benchmark::State& state,
                           const qpe::nn::simd::Kernels& kern) {
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  const std::vector<float> dy = RandomBuffer(static_cast<size_t>(m) * n, 45);
  const std::vector<float> wt = RandomBuffer(static_cast<size_t>(n) * k, 46);
  std::vector<float> dx(static_cast<size_t>(m) * k);
  for (auto _ : state) {
    std::fill(dx.begin(), dx.end(), 0.0f);
    kern.matmul_backward_a(dy.data(), wt.data(), dx.data(), 0, m, k, n);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
  state.SetLabel(kern.name);
}
void BM_MatMulBackwardAScalar(benchmark::State& state) {
  MatMulBackwardAKernel(state, ScalarKernels());
}
void BM_MatMulBackwardASimd(benchmark::State& state) {
  MatMulBackwardAKernel(state, BestKernels());
}
BENCHMARK(BM_MatMulBackwardAScalar)->Apply(TrainingGemmShapes);
BENCHMARK(BM_MatMulBackwardASimd)->Apply(TrainingGemmShapes);

// dW += X^T * dY, the weight gradient, over all k rows of a zeroed dW.
void MatMulBackwardBKernel(benchmark::State& state,
                           const qpe::nn::simd::Kernels& kern) {
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  const std::vector<float> x = ActivationBuffer(m, k, 47);
  const std::vector<float> dy = RandomBuffer(static_cast<size_t>(m) * n, 48);
  std::vector<float> dw(static_cast<size_t>(k) * n);
  for (auto _ : state) {
    std::fill(dw.begin(), dw.end(), 0.0f);
    kern.matmul_backward_b(x.data(), dy.data(), dw.data(), 0, k, m, k, n);
    benchmark::DoNotOptimize(dw.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
  state.SetLabel(kern.name);
}
void BM_MatMulBackwardBScalar(benchmark::State& state) {
  MatMulBackwardBKernel(state, ScalarKernels());
}
void BM_MatMulBackwardBSimd(benchmark::State& state) {
  MatMulBackwardBKernel(state, BestKernels());
}
BENCHMARK(BM_MatMulBackwardBScalar)->Apply(TrainingGemmShapes);
BENCHMARK(BM_MatMulBackwardBSimd)->Apply(TrainingGemmShapes);

void LayerNormKernel(benchmark::State& state,
                     const qpe::nn::simd::Kernels& kern, int cols) {
  const int rows = static_cast<int>(state.range(0));
  const std::vector<float> x =
      RandomBuffer(static_cast<size_t>(rows) * cols, 33);
  const std::vector<float> gamma = RandomBuffer(cols, 34);
  const std::vector<float> beta = RandomBuffer(cols, 35);
  std::vector<float> out(x.size());
  const float invn = 1.0f / static_cast<float>(cols);
  for (auto _ : state) {
    kern.layer_norm_rows(x.data(), gamma.data(), beta.data(), out.data(),
                         rows, cols, invn);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
  state.SetLabel(kern.name);
}
void BM_LayerNormScalar(benchmark::State& state) {
  LayerNormKernel(state, ScalarKernels(), 64);
}
void BM_LayerNormSimd(benchmark::State& state) {
  LayerNormKernel(state, BestKernels(), 64);
}
BENCHMARK(BM_LayerNormScalar)->Arg(256);
BENCHMARK(BM_LayerNormSimd)->Arg(256);

// Layer norm at the model width (48) over a row count that is not a
// multiple of 8, so the row tiles of the statistics end in a partial one.
// Arg: rows.
void BM_LayerNormRowsScalar(benchmark::State& state) {
  LayerNormKernel(state, ScalarKernels(), 48);
}
void BM_LayerNormRowsSimd(benchmark::State& state) {
  LayerNormKernel(state, BestKernels(), 48);
}
BENCHMARK(BM_LayerNormRowsScalar)->Arg(100);
BENCHMARK(BM_LayerNormRowsSimd)->Arg(100);

// Packed ragged-batch attention at the model shape (48 dims, 4 heads),
// 16 sequences of the given length, including the per-layer K/V repack
// into head blocks that every caller pays. Arg: sequence length.
void AttentionBlockedKernel(benchmark::State& state,
                            const qpe::nn::simd::Kernels& kern) {
  const int len = static_cast<int>(state.range(0));
  const int num_seqs = 16, num_heads = 4, dim = 48;
  std::vector<int> offsets(num_seqs), lengths(num_seqs, len);
  for (int s = 0; s < num_seqs; ++s) offsets[s] = s * len;
  const int total = num_seqs * len;
  const std::vector<float> q = RandomBuffer(static_cast<size_t>(total) * dim, 37);
  const std::vector<float> k = RandomBuffer(static_cast<size_t>(total) * dim, 38);
  const std::vector<float> v = RandomBuffer(static_cast<size_t>(total) * dim, 39);
  std::vector<float> kbt(k.size()), vb(v.size());
  std::vector<float> probs(static_cast<size_t>(len) * len);
  std::vector<float> out(q.size());
  const float scale = 1.0f / std::sqrt(static_cast<float>(dim / num_heads));
  for (auto _ : state) {
    qpe::nn::RepackHeadsKT(k.data(), total, dim, num_heads, kbt.data());
    qpe::nn::RepackHeadsVB(v.data(), total, dim, num_heads, vb.data());
    kern.attention_forward_blocked(q.data(), kbt.data(), vb.data(),
                                   out.data(), offsets.data(), lengths.data(),
                                   num_seqs, num_heads, total, dim, scale,
                                   probs.data());
    benchmark::DoNotOptimize(out.data());
  }
  // Scores + context: 2 * T^2 * dim MACs per sequence.
  state.SetItemsProcessed(state.iterations() * num_seqs * 2LL * len * len *
                          dim * 2);
  state.SetLabel(kern.name);
}
void BM_AttentionBlockedScalar(benchmark::State& state) {
  AttentionBlockedKernel(state, ScalarKernels());
}
void BM_AttentionBlockedSimd(benchmark::State& state) {
  AttentionBlockedKernel(state, BestKernels());
}
BENCHMARK(BM_AttentionBlockedScalar)->Arg(32);
BENCHMARK(BM_AttentionBlockedSimd)->Arg(32);

// Head-blocked attention over one ragged batch of serve_cold-like lengths
// at the model shape, with the same per-layer repack. Unlike the equal
// multiples of 8 above, these lengths end their query tiles with spare
// lanes and their keys in remainder blocks and scalar exp tails.
void AttentionBlockedRaggedKernel(benchmark::State& state,
                                  const qpe::nn::simd::Kernels& kern) {
  const std::vector<int> lengths = {9, 15, 23, 37, 64, 71, 100, 124};
  const int num_seqs = static_cast<int>(lengths.size());
  const int num_heads = 4, dim = 48;
  std::vector<int> offsets(num_seqs);
  int total = 0;
  long long pairs = 0;
  for (int s = 0; s < num_seqs; ++s) {
    offsets[s] = total;
    total += lengths[s];
    pairs += static_cast<long long>(lengths[s]) * lengths[s];
  }
  const int max_len = *std::max_element(lengths.begin(), lengths.end());
  const std::vector<float> q = RandomBuffer(static_cast<size_t>(total) * dim, 37);
  const std::vector<float> k = RandomBuffer(static_cast<size_t>(total) * dim, 38);
  const std::vector<float> v = RandomBuffer(static_cast<size_t>(total) * dim, 39);
  std::vector<float> kbt(k.size()), vb(v.size());
  std::vector<float> probs(static_cast<size_t>(max_len) * max_len);
  std::vector<float> out(q.size());
  const float scale = 1.0f / std::sqrt(static_cast<float>(dim / num_heads));
  for (auto _ : state) {
    qpe::nn::RepackHeadsKT(k.data(), total, dim, num_heads, kbt.data());
    qpe::nn::RepackHeadsVB(v.data(), total, dim, num_heads, vb.data());
    kern.attention_forward_blocked(q.data(), kbt.data(), vb.data(),
                                   out.data(), offsets.data(), lengths.data(),
                                   num_seqs, num_heads, total, dim, scale,
                                   probs.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * pairs * dim * 4);
  state.SetLabel(kern.name);
}
void BM_AttentionBlockedRaggedScalar(benchmark::State& state) {
  AttentionBlockedRaggedKernel(state, ScalarKernels());
}
void BM_AttentionBlockedRaggedSimd(benchmark::State& state) {
  AttentionBlockedRaggedKernel(state, BestKernels());
}
BENCHMARK(BM_AttentionBlockedRaggedScalar);
BENCHMARK(BM_AttentionBlockedRaggedSimd);

// CLS-only attention at the same shape: every key and value of the batch,
// one query per sequence — the engine's last layer. The repack is the
// same per-layer cost, so the pair against BM_AttentionBlocked measures
// what the trimmed layer saves in attention. Arg: sequence length.
void AttentionClsKernel(benchmark::State& state,
                        const qpe::nn::simd::Kernels& kern) {
  const int len = static_cast<int>(state.range(0));
  const int num_seqs = 16, num_heads = 4, dim = 48;
  std::vector<int> offsets(num_seqs), lengths(num_seqs, len);
  for (int s = 0; s < num_seqs; ++s) offsets[s] = s * len;
  const int total = num_seqs * len;
  const std::vector<float> q = RandomBuffer(static_cast<size_t>(num_seqs) * dim, 37);
  const std::vector<float> k = RandomBuffer(static_cast<size_t>(total) * dim, 38);
  const std::vector<float> v = RandomBuffer(static_cast<size_t>(total) * dim, 39);
  std::vector<float> kbt(k.size()), vb(v.size());
  std::vector<float> probs(static_cast<size_t>(len));
  std::vector<float> out(q.size());
  const float scale = 1.0f / std::sqrt(static_cast<float>(dim / num_heads));
  for (auto _ : state) {
    qpe::nn::RepackHeadsKT(k.data(), total, dim, num_heads, kbt.data());
    qpe::nn::RepackHeadsVB(v.data(), total, dim, num_heads, vb.data());
    kern.attention_cls_blocked(q.data(), kbt.data(), vb.data(), out.data(),
                               offsets.data(), lengths.data(), num_seqs,
                               num_heads, total, dim, scale, probs.data());
    benchmark::DoNotOptimize(out.data());
  }
  // Scores + context: 2 * T * dim MACs per sequence.
  state.SetItemsProcessed(state.iterations() * num_seqs * 2LL * len * dim *
                          2);
  state.SetLabel(kern.name);
}
void BM_AttentionClsScalar(benchmark::State& state) {
  AttentionClsKernel(state, ScalarKernels());
}
void BM_AttentionClsSimd(benchmark::State& state) {
  AttentionClsKernel(state, BestKernels());
}
BENCHMARK(BM_AttentionClsScalar)->Arg(32);
BENCHMARK(BM_AttentionClsSimd)->Arg(32);

// Attention backward at the same shape, the training step's counterpart of
// the forward pairs above. BM_AttentionBackwardPacked is a full layer's
// backward (every query of every sequence); BM_AttentionBackwardCls is the
// CLS-trimmed last layer's (one query per sequence, gradients for every
// key and value), including the two per-head transposes the step pays.
// Both zero their gradient buffers per iteration, as the step does. Arg:
// sequence length.
void AttentionBackwardPackedKernel(benchmark::State& state,
                                   const qpe::nn::simd::Kernels& kern) {
  const int len = static_cast<int>(state.range(0));
  const int num_seqs = 16, num_heads = 4, dim = 48;
  std::vector<int> offsets(num_seqs), lengths(num_seqs, len);
  for (int s = 0; s < num_seqs; ++s) offsets[s] = s * len;
  const size_t n = static_cast<size_t>(num_seqs) * len * dim;
  const std::vector<float> q = RandomBuffer(n, 37);
  const std::vector<float> k = RandomBuffer(n, 38);
  const std::vector<float> v = RandomBuffer(n, 39);
  const std::vector<float> og = RandomBuffer(n, 40);
  std::vector<float> qg(n), kg(n), vg(n);
  std::vector<float> scratch(2 * static_cast<size_t>(len) *
                             (len + dim / num_heads));
  const float scale = 1.0f / std::sqrt(static_cast<float>(dim / num_heads));
  for (auto _ : state) {
    std::fill(qg.begin(), qg.end(), 0.0f);
    std::fill(kg.begin(), kg.end(), 0.0f);
    std::fill(vg.begin(), vg.end(), 0.0f);
    kern.attention_backward_packed(q.data(), k.data(), v.data(), og.data(),
                                   qg.data(), kg.data(), vg.data(),
                                   offsets.data(), lengths.data(), num_seqs,
                                   num_heads, dim, scale, scratch.data());
    benchmark::DoNotOptimize(qg.data());
  }
  // Scores, d_probs and the q/k/v gradients: 5 * T^2 * dim MACs per
  // sequence.
  state.SetItemsProcessed(state.iterations() * num_seqs * 5LL * len * len *
                          dim * 2);
  state.SetLabel(kern.name);
}
void BM_AttentionBackwardPackedScalar(benchmark::State& state) {
  AttentionBackwardPackedKernel(state, ScalarKernels());
}
void BM_AttentionBackwardPackedSimd(benchmark::State& state) {
  AttentionBackwardPackedKernel(state, BestKernels());
}
BENCHMARK(BM_AttentionBackwardPackedScalar)->Arg(32);
BENCHMARK(BM_AttentionBackwardPackedSimd)->Arg(32);

void AttentionBackwardClsKernel(benchmark::State& state,
                                const qpe::nn::simd::Kernels& kern) {
  const int len = static_cast<int>(state.range(0));
  const int num_seqs = 16, num_heads = 4, dim = 48;
  std::vector<int> offsets(num_seqs), lengths(num_seqs, len);
  for (int s = 0; s < num_seqs; ++s) offsets[s] = s * len;
  const int total = num_seqs * len;
  const size_t n = static_cast<size_t>(total) * dim;
  const size_t b = static_cast<size_t>(num_seqs) * dim;
  const std::vector<float> q = RandomBuffer(b, 37);
  const std::vector<float> k = RandomBuffer(n, 38);
  const std::vector<float> v = RandomBuffer(n, 39);
  const std::vector<float> og = RandomBuffer(b, 40);
  std::vector<float> kbt(n), vbt(n), qg(b), kg(n), vg(n);
  std::vector<float> probs(2 * static_cast<size_t>(len));
  const float scale = 1.0f / std::sqrt(static_cast<float>(dim / num_heads));
  for (auto _ : state) {
    std::fill(qg.begin(), qg.end(), 0.0f);
    std::fill(kg.begin(), kg.end(), 0.0f);
    std::fill(vg.begin(), vg.end(), 0.0f);
    qpe::nn::RepackHeadsKT(k.data(), total, dim, num_heads, kbt.data());
    qpe::nn::RepackHeadsKT(v.data(), total, dim, num_heads, vbt.data());
    kern.attention_backward_cls(q.data(), kbt.data(), vbt.data(), og.data(),
                                qg.data(), kg.data(), vg.data(),
                                offsets.data(), lengths.data(), num_seqs,
                                num_heads, total, dim, scale, probs.data());
    benchmark::DoNotOptimize(qg.data());
  }
  // The same five phases for one query: 5 * T * dim MACs per sequence.
  state.SetItemsProcessed(state.iterations() * num_seqs * 5LL * len * dim *
                          2);
  state.SetLabel(kern.name);
}
void BM_AttentionBackwardClsScalar(benchmark::State& state) {
  AttentionBackwardClsKernel(state, ScalarKernels());
}
void BM_AttentionBackwardClsSimd(benchmark::State& state) {
  AttentionBackwardClsKernel(state, BestKernels());
}
BENCHMARK(BM_AttentionBackwardClsScalar)->Arg(32);
BENCHMARK(BM_AttentionBackwardClsSimd)->Arg(32);

// Fused embedding gather + positional add at the model dims (24+12+12),
// the packed pipeline's batch-assembly kernel. Arg: packed rows.
void EmbedGatherKernel(benchmark::State& state,
                       const qpe::nn::simd::Kernels& kern) {
  const int rows = static_cast<int>(state.range(0));
  const int d1 = 24, d2 = 12, d3 = 12;
  const int d = d1 + d2 + d3;
  const int vocab = 64, max_len = 256;
  const std::vector<float> e1 = RandomBuffer(static_cast<size_t>(vocab) * d1, 51);
  const std::vector<float> e2 = RandomBuffer(static_cast<size_t>(vocab) * d2, 52);
  const std::vector<float> e3 = RandomBuffer(static_cast<size_t>(vocab) * d3, 53);
  const std::vector<float> pos =
      RandomBuffer(static_cast<size_t>(max_len) * d, 54);
  qpe::util::Rng rng(55);
  std::vector<int> ids1(rows), ids2(rows), ids3(rows), positions(rows);
  for (int r = 0; r < rows; ++r) {
    ids1[r] = rng.UniformInt(0, vocab - 1);
    ids2[r] = rng.UniformInt(0, vocab - 1);
    ids3[r] = rng.UniformInt(0, vocab - 1);
    positions[r] = rng.UniformInt(0, max_len - 1);
  }
  std::vector<float> out(static_cast<size_t>(rows) * d);
  for (auto _ : state) {
    kern.embed_gather_add(e1.data(), e2.data(), e3.data(), pos.data(),
                          ids1.data(), ids2.data(), ids3.data(),
                          positions.data(), out.data(), rows, d1, d2, d3);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * d);
  state.SetLabel(kern.name);
}
void BM_EmbedGatherScalar(benchmark::State& state) {
  EmbedGatherKernel(state, ScalarKernels());
}
void BM_EmbedGatherSimd(benchmark::State& state) {
  EmbedGatherKernel(state, BestKernels());
}
BENCHMARK(BM_EmbedGatherScalar)->Arg(512);
BENCHMARK(BM_EmbedGatherSimd)->Arg(512);

// Int8 GEMM over pre-packed weight tiles (the quantized serving engine's
// layout after Quantize() packs). Packing happens once outside the loop,
// exactly as in QuantizedLinear; compare against BM_LinearBiasActSimd at
// the same shape for the quantization win on top of vectorization. Uses
// the dispatched (best) table. Args: {m, k, n}.
void BM_Int8GemmPacked(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  const qpe::nn::simd::Kernels& kern = BestKernels();
  qpe::util::Rng rng(40);
  const int k_pad = qpe::nn::simd::Int8PackedKPad(k);
  std::vector<int8_t> a(static_cast<size_t>(m) * k_pad, 0);
  std::vector<int8_t> b(static_cast<size_t>(n) * k);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < k; ++j) {
      a[static_cast<size_t>(i) * k_pad + j] =
          static_cast<int8_t>(rng.UniformInt(-127, 127));
    }
  }
  for (int8_t& x : b) {
    x = static_cast<int8_t>(rng.UniformInt(-127, 127));
  }
  std::vector<int16_t> packed(qpe::nn::simd::Int8PackedSize(k, n));
  qpe::nn::simd::PackInt8WeightTiles(b.data(), k, n, packed.data());
  const std::vector<float> b_scale(n, 0.02f);
  const std::vector<float> bias = RandomBuffer(n, 41);
  std::vector<float> c(static_cast<size_t>(m) * n);
  for (auto _ : state) {
    kern.int8_gemm_packed(a.data(), packed.data(), c.data(), m, k, n,
                          0.01f, b_scale.data(), bias.data(), /*relu=*/0);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
  state.SetLabel(kern.name);
}
BENCHMARK(BM_Int8GemmPacked)->Args({256, 48, 48})->Args({256, 256, 256});

// --- Training steps ---------------------------------------------------------

// One PPSR training epoch (24 pairs, transformer encoder) per iteration.
// Arg: thread count. The model has one layer, which is also its last: the
// whole encoder trains CLS-trimmed, so a change to the trimmed layer moves
// this bench more than it moves the default two-layer model (qpebench's
// train_ppsr measures that one).
void BM_TrainStepPpsr(benchmark::State& state) {
  qpe::util::SetMaxThreads(static_cast<int>(state.range(0)));
  qpe::data::PairDatasetOptions options;
  options.num_pairs = 24;
  options.corpus.min_nodes = 4;
  options.corpus.max_nodes = 16;
  const qpe::data::PlanPairDataset dataset =
      qpe::data::BuildCorpusPairDataset(options);
  qpe::util::Rng rng(14);
  qpe::encoder::StructureEncoderConfig config;
  config.num_layers = 1;
  qpe::encoder::PpsrModel model(
      std::make_unique<qpe::encoder::TransformerPlanEncoder>(config, &rng),
      &rng);
  qpe::encoder::PpsrTrainOptions train_options;
  train_options.epochs = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qpe::encoder::TrainPpsr(&model, dataset.train, train_options));
  }
  qpe::util::SetMaxThreads(1);
}
BENCHMARK(BM_TrainStepPpsr)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// One performance-encoder training epoch (128 synthetic operator samples,
// including the per-epoch train-MAE evaluation) per iteration. Arg: thread
// count.
void BM_TrainStepPerfEncoder(benchmark::State& state) {
  qpe::util::SetMaxThreads(static_cast<int>(state.range(0)));
  qpe::util::Rng rng(9);
  qpe::encoder::PerformanceEncoder model({}, &rng);
  qpe::data::OperatorDataset dataset;
  dataset.train.resize(128);
  qpe::util::Rng feature_rng(10);
  for (size_t i = 0; i < dataset.train.size(); ++i) {
    auto& sample = dataset.train[i];
    sample.node_features.resize(qpe::data::kNodeFeatureDim);
    sample.meta_features.resize(qpe::catalog::Catalog::kMetaFeatureDim);
    sample.db_features.resize(qpe::config::DbConfig::FeatureDim());
    for (double& v : sample.node_features) v = feature_rng.Uniform();
    for (double& v : sample.meta_features) v = feature_rng.Uniform();
    for (double& v : sample.db_features) v = feature_rng.Uniform();
    sample.actual_total_time_ms = 10.0 * (i % 7 + 1);
    sample.total_cost = 100.0 * (i % 5 + 1);
    sample.startup_cost = 1.0 * (i % 3 + 1);
  }
  qpe::encoder::PerfTrainOptions options;
  options.epochs = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qpe::encoder::TrainPerformanceEncoder(&model, dataset, options)
            .size());
  }
  qpe::util::SetMaxThreads(1);
}
BENCHMARK(BM_TrainStepPerfEncoder)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// --- train_step_speedup context stamp ---------------------------------------

// Routes EncodeBatchGrad through the per-plan op-chain loop of the base
// class (the packed training step's bitwise oracle).
class PerPlanTrainEncoder : public qpe::encoder::TransformerPlanEncoder {
 public:
  using TransformerPlanEncoder::TransformerPlanEncoder;
  std::vector<qpe::nn::Tensor> EncodeBatchGrad(
      std::span<const qpe::plan::PlanNode* const> plans,
      qpe::util::Rng* dropout_rng) const override {
    return PlanSequenceEncoder::EncodeBatchGrad(plans, dropout_rng);
  }
};

// Best-of-3 single-threaded PPSR training epochs (same model shape and data
// as BM_TrainStepPpsr), fresh model per repetition so every measurement
// times epoch 1 from identical weights. `packed` selects the encoder's
// packed training step, otherwise the per-plan oracle.
double BestTrainEpochMs(const qpe::data::PlanPairDataset& dataset,
                        bool packed) {
  qpe::util::SetMaxThreads(1);
  double best_ms = 0;
  for (int rep = 0; rep < 3; ++rep) {
    qpe::util::Rng rng(14);
    qpe::encoder::StructureEncoderConfig config;
    config.num_layers = 1;
    std::unique_ptr<qpe::encoder::PlanSequenceEncoder> encoder;
    if (packed) {
      encoder =
          std::make_unique<qpe::encoder::TransformerPlanEncoder>(config, &rng);
    } else {
      encoder = std::make_unique<PerPlanTrainEncoder>(config, &rng);
    }
    qpe::encoder::PpsrModel model(std::move(encoder), &rng);
    qpe::encoder::PpsrTrainOptions train_options;
    train_options.epochs = 1;
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        qpe::encoder::TrainPpsr(&model, dataset.train, train_options));
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (rep == 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms;
}

// The packed-training win, measured in-process so the regression gate can
// hold an absolute floor on it: per-plan op-chain training graphs
// (PerPlanTrainEncoder) vs the packed columnar forward/backward on the
// exact same single-threaded epoch. A ratio of wall-clock ratios is
// largely frequency-insensitive, which is what an absolute floor needs on
// shared hosts.
std::string MeasureTrainStepSpeedup() {
  qpe::data::PairDatasetOptions options;
  options.num_pairs = 24;
  options.corpus.min_nodes = 4;
  options.corpus.max_nodes = 16;
  const qpe::data::PlanPairDataset dataset =
      qpe::data::BuildCorpusPairDataset(options);
  const double per_plan_ms = BestTrainEpochMs(dataset, /*packed=*/false);
  const double packed_ms = BestTrainEpochMs(dataset, /*packed=*/true);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                packed_ms > 0 ? per_plan_ms / packed_ms : 0.0);
  return buf;
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): stamp this binary's build type,
// SIMD level and core count into the JSON context so the baseline scripts
// can refuse debug-recorded or other-hardware numbers. (The reporter's own
// `library_build_type` field describes how libbenchmark was compiled, not
// this binary; qpe_num_cpus uses the same count as bench_serving's
// num_cpus.)
int main(int argc, char** argv) {
  benchmark::AddCustomContext("qpe_build_type", QPE_BUILD_TYPE);
  benchmark::AddCustomContext(
      "qpe_simd_level",
      qpe::nn::simd::LevelName(qpe::nn::simd::ActiveLevel()));
  benchmark::AddCustomContext(
      "qpe_num_cpus", std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext("train_step_speedup",
                              MeasureTrainStepSpeedup());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
