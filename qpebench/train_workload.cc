// train_ppsr: PPSR pretraining of the structure encoder on Smatch-labelled
// plan pairs — the nn kernels' training side (forward with activations
// kept, backward, gradient clipping, the fused Adam step).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "encoder/ppsr.h"
#include "encoder/structure_encoder.h"
#include "nn/optimizer.h"
#include "nn/parallel.h"
#include "nn/tensor.h"
#include "plan/linearize.h"
#include "stats.h"
#include "trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace qpebench {

namespace {

namespace nn = qpe::nn;
using qpe::data::PlanPair;
using qpe::encoder::PpsrModel;

constexpr int kTrainThreads = 2;  // pool threads, <= nproc
constexpr int kTrainPairs = 400;
// Plans of 12 to 36 operators: short Smatch labelling (set-up), and every
// seed's corpus costs about the same to train on, so runs at different
// seeds compare. serve_cold covers the tiny and the deep trees.
constexpr int kMinPlanNodes = 12;
constexpr int kMaxPlanNodes = 36;
constexpr int kBatchSize = 2;     // one pair per pool thread
constexpr float kLearningRate = 5e-4f;
constexpr float kGradClip = 5.0f;
constexpr int kSetupRepeats = 3;
constexpr uint64_t kModelSeed = 20240806;

struct TrainFixture {
  qpe::data::PlanPairDataset data;
  std::unique_ptr<PpsrModel> model;
};

// Pair generation and Smatch labelling (the set-up cost), plus the model.
std::unique_ptr<TrainFixture> SetUpTrain(uint64_t seed, bool smoke) {
  auto fx = std::make_unique<TrainFixture>();
  qpe::data::PairDatasetOptions options;
  options.num_pairs = smoke ? 48 : kTrainPairs;
  options.seed = seed;
  options.dev_fraction = 0;
  options.test_fraction = 0.2;
  options.corpus.min_nodes = kMinPlanNodes;
  options.corpus.max_nodes = kMaxPlanNodes;
  fx->data = qpe::data::BuildCorpusPairDataset(options);
  qpe::util::Rng rng(kModelSeed);
  fx->model = std::make_unique<PpsrModel>(
      std::make_unique<qpe::encoder::TransformerPlanEncoder>(
          qpe::encoder::StructureEncoderConfig{}, &rng),
      &rng);
  return fx;
}

struct StepSpans {
  int step, grad, forward, clip, adam;
  explicit StepSpans(Tracer* t)
      : step(t->Intern("train.step")),
        grad(t->Intern("train.gradient_step")),
        forward(t->Intern("train.forward")),
        clip(t->Intern("train.clip")),
        adam(t->Intern("train.adam")) {}
};

struct StepLoop {
  std::vector<double> step_ms;
  int64_t steps = 0;
  int64_t nonfinite = 0;
  int64_t pairs = 0;
  double wall_s = 0;
};

// Re-drives TrainPpsr's batch loop with the same RNG discipline (epoch
// permutation, one dropout stream forked per pair, ZeroGrad,
// ParallelGradientStep over one shard per pair, the loss-spike guard,
// ClipGradNorm, Adam::Step) so each step can be timed and traced. Runs
// whole epochs until `epochs` are done or `budget_s` has passed.
StepLoop RedriveSteps(PpsrModel* model, const std::vector<PlanPair>& train,
                      uint64_t seed, int epochs, double budget_s,
                      Tracer* tracer, const StepSpans& ids) {
  StepLoop out;
  const std::vector<nn::Tensor> params = model->Parameters();
  nn::Adam optimizer(params, kLearningRate);
  qpe::util::Rng rng(seed);
  nn::ShardGradBuffers scratch;
  std::vector<qpe::util::Rng> shard_rngs;
  model->SetTraining(true);
  const double t_begin = WallSeconds();
  for (int epoch = 0; epoch < epochs && WallSeconds() - t_begin < budget_s;
       ++epoch) {
    const std::vector<int> order =
        rng.Permutation(static_cast<int>(train.size()));
    for (size_t start = 0; start < order.size(); start += kBatchSize) {
      const int count = static_cast<int>(
          std::min(order.size(), start + kBatchSize) - start);
      const int64_t step = out.steps++;
      const double t0 = WallSeconds();
      ScopedSpan step_span(tracer, ids.step, -1, step);
      shard_rngs.clear();
      for (int s = 0; s < count; ++s) shard_rngs.push_back(rng.Fork());
      model->ZeroGrad();
      double loss = 0;
      {
        ScopedSpan grad_span(tracer, ids.grad, step_span.id(), step);
        const int grad_id = grad_span.id();
        loss = nn::ParallelGradientStep(
            params, count,
            [&](int s) {
              ScopedSpan fwd(tracer, ids.forward, grad_id, step);
              const PlanPair& pair = train[order[start + s]];
              const nn::Tensor pred = model->PredictSimilarity(
                  *pair.left, *pair.right, &shard_rngs[s]);
              const nn::Tensor target =
                  nn::Tensor::Scalar(static_cast<float>(pair.smatch));
              return nn::Scale(nn::Square(nn::Sub(pred, target)),
                               1.0f / static_cast<float>(count));
            },
            &scratch);
      }
      out.pairs += count;
      if (!std::isfinite(loss)) {
        ++out.nonfinite;
        continue;
      }
      {
        ScopedSpan s(tracer, ids.clip, step_span.id(), step);
        nn::ClipGradNorm(params, kGradClip);
      }
      {
        ScopedSpan s(tracer, ids.adam, step_span.id(), step);
        optimizer.Step();
      }
      out.step_ms.push_back((WallSeconds() - t0) * 1e3);
    }
  }
  out.wall_s = WallSeconds() - t_begin;
  model->SetTraining(false);
  return out;
}

int RunTrainUntraced(const RunOptions& options, Report* report) {
  std::vector<double> setup_times;
  std::unique_ptr<TrainFixture> fx;
  for (int r = 0; r < (options.smoke ? 1 : kSetupRepeats); ++r) {
    fx.reset();
    const double t0 = WallSeconds();
    fx = SetUpTrain(options.seed, options.smoke);
    setup_times.push_back(WallSeconds() - t0);
  }
  const std::vector<PlanPair>& train = fx->data.train;
  const std::vector<PlanPair>& test = fx->data.test;
  double tokens = 0;
  for (const PlanPair& pair : train) {
    tokens += static_cast<double>(
        qpe::plan::LinearizeDfsBracket(*pair.left).size() +
        qpe::plan::LinearizeDfsBracket(*pair.right).size());
  }
  report->Note("pairs: " + std::to_string(train.size()) + " train, " +
               std::to_string(test.size()) + " held out; " +
               FormatNumber(tokens / (2.0 * static_cast<double>(train.size()))) +
               " tokens per train plan");
  const double untrained_mae = qpe::encoder::EvaluatePpsrMae(*fx->model, test);

  // Throughput phase: whole TrainPpsr epochs until the budget is spent.
  const double s = options.seconds;
  int64_t pairs = 0, steps = 0, nonfinite = 0;
  int epochs = 0;
  bool losses_finite = true;
  std::vector<double> epoch_rates, epoch_cpu_us;  // plans/s, us/plan
  const double t0 = WallSeconds();
  const double cpu0 = ProcessCpuSeconds();
  while (epochs == 0 || WallSeconds() - t0 < 0.5 * s) {
    const double epoch_t0 = WallSeconds();
    const double epoch_cpu0 = ProcessCpuSeconds();
    qpe::encoder::PpsrTrainStats stats;
    qpe::encoder::PpsrTrainOptions train_options;
    train_options.epochs = 1;
    train_options.batch_size = kBatchSize;
    train_options.lr = kLearningRate;
    train_options.grad_clip = kGradClip;
    train_options.seed = options.seed * 7919 + static_cast<uint64_t>(epochs);
    train_options.stats = &stats;
    const double loss = qpe::encoder::TrainPpsr(fx->model.get(), train,
                                                train_options);
    losses_finite = losses_finite && std::isfinite(loss);
    nonfinite += stats.nonfinite_losses;
    const double epoch_plans = 2.0 * static_cast<double>(train.size());
    epoch_rates.push_back(epoch_plans / (WallSeconds() - epoch_t0));
    epoch_cpu_us.push_back((ProcessCpuSeconds() - epoch_cpu0) * 1e6 /
                           epoch_plans);
    pairs += static_cast<int64_t>(train.size());
    steps += static_cast<int64_t>((train.size() + kBatchSize - 1) / kBatchSize);
    ++epochs;
  }
  const double wall = WallSeconds() - t0;
  const double cpu = ProcessCpuSeconds() - cpu0;

  // Latency phase: the same step loop, one optimizer step timed at a time.
  Tracer off(false);
  const StepSpans ids(&off);
  const StepLoop loop = RedriveSteps(fx->model.get(), train,
                                     options.seed * 104729, 1 << 20,
                                     0.5 * s, nullptr, ids);
  const double eval_mae = qpe::encoder::EvaluatePpsrMae(*fx->model, test);

  report->Note("throughput phase: " + std::to_string(epochs) + " TrainPpsr epochs, " +
               std::to_string(pairs) + " pairs in " + FormatNumber(wall) + " s");
  report->Note("latency phase: " + std::to_string(loop.step_ms.size()) +
               " optimizer steps of " + std::to_string(kBatchSize) +
               " pairs; highest supported percentile p" +
               FormatNumber(HighestSupportedPercentile(loop.step_ms.size())));
  report->Set("setup_s", Median(setup_times));
  std::string rates = "per-epoch plans/s:";
  for (const double r : epoch_rates) {
    rates += ' ';
    rates += FormatNumber(r);
  }
  report->Note(rates);
  // Medians over epochs: an epoch slowed by a transient stall does not
  // move them.
  report->Set("throughput_plans_per_sec", Median(epoch_rates));
  // Median over windows of >= 1000 steps, each of which supports its p99.
  report->Extra("p50_ms", WindowedPercentile(loop.step_ms, 50, 1000, 5), "ms");
  report->Extra("p99_ms", WindowedPercentile(loop.step_ms, 99, 1000, 5), "ms");
  report->Set("cpu_us_per_plan", Median(epoch_cpu_us));
  report->Set("peak_rss_mb", PeakRssMb());
  report->Extra("train_pairs_per_sec", static_cast<double>(pairs) / wall, "pairs/s");
  report->Extra("train_cpu_us_per_pair", cpu * 1e6 / static_cast<double>(pairs), "us");
  report->Extra("eval_mae", eval_mae, "abs");
  report->Extra("untrained_mae", untrained_mae, "abs");

  const int64_t all_nonfinite = nonfinite + loop.nonfinite;
  report->AddAttempted(static_cast<uint64_t>(steps + loop.steps));
  report->AddFailed(static_cast<uint64_t>(all_nonfinite));
  report->Check(losses_finite && all_nonfinite == 0,
                "every epoch loss and batch loss finite");
  report->Check(std::isfinite(eval_mae) && eval_mae < untrained_mae,
                "eval_mae " + FormatNumber(eval_mae) +
                    " below the untrained model's " +
                    FormatNumber(untrained_mae));
  return 0;
}

int RunTrainTraced(const RunOptions& options, Report* report) {
  std::unique_ptr<TrainFixture> fx = SetUpTrain(options.seed, options.smoke);
  const std::vector<PlanPair>& train = fx->data.train;
  const std::vector<PlanPair>& test = fx->data.test;
  const double untrained_mae = qpe::encoder::EvaluatePpsrMae(*fx->model, test);
  Tracer tracer(true);
  const StepSpans ids(&tracer);
  const uint64_t seed = options.seed * 7919;
  // One untraced epoch, then one traced epoch seeded the same way.
  const StepLoop plain =
      RedriveSteps(fx->model.get(), train, seed, 1, 1e9, nullptr, ids);
  const StepLoop traced =
      RedriveSteps(fx->model.get(), train, seed, 1, 1e9, &tracer, ids);
  const double eval_mae = qpe::encoder::EvaluatePpsrMae(*fx->model, test);

  const std::map<std::string, SpanTotals> by_name =
      TotalsByName(tracer.spans(), tracer.names());
  auto get = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? SpanTotals{} : it->second;
  };
  const double steps = traced.steps > 0 ? static_cast<double>(traced.steps) : 1;
  const SpanTotals grad = get("train.gradient_step");
  // Forward = the part of the gradient step some shard's forward covered;
  // the rest of the gradient step is backward plus the ordered reduce.
  report->Set("train.forward_ms_per_batch",
              (grad.total_us - grad.self_us) / steps / 1e3);
  report->Set("train.backward_reduce_ms_per_batch", grad.self_us / steps / 1e3);
  report->Set("train.clip_ms_per_batch", get("train.clip").total_us / steps / 1e3);
  report->Set("train.adam_ms_per_batch", get("train.adam").total_us / steps / 1e3);
  report->Set("train.step_ms_per_batch", get("train.step").total_us / steps / 1e3);
  report->Set("latency.p50_ms", WindowedPercentile(plain.step_ms, 50, 1000, 5));
  report->Set("latency.p99_ms", WindowedPercentile(plain.step_ms, 99, 1000, 5));
  report->Set("train.nonfinite_losses",
              static_cast<double>(plain.nonfinite + traced.nonfinite));
  report->Set("train.pairs_per_sec",
              plain.wall_s > 0 ? static_cast<double>(plain.pairs) / plain.wall_s : 0);
  report->Set("train.eval_mae", eval_mae);
  report->Set("train.untrained_mae", untrained_mae);
  report->Set("trace.overhead_pct",
              plain.wall_s > 0
                  ? 100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s
                  : 0);
  report->Set("trace.spans", static_cast<double>(tracer.spans().size()));
  report->Note("forward spans: " + std::to_string(get("train.forward").count) +
               " shard forwards over " + std::to_string(traced.steps) + " steps");

  const std::string span_path = options.work_dir + "/spans-train_ppsr-" +
                                std::to_string(options.seed) + ".tsv";
  report->AddAttempted(static_cast<uint64_t>(plain.steps + traced.steps));
  report->AddFailed(static_cast<uint64_t>(plain.nonfinite + traced.nonfinite));
  report->Check(tracer.WriteTsv(span_path), "spans written to " + span_path);
  report->Check(plain.nonfinite + traced.nonfinite == 0, "every batch loss finite");
  report->Check(std::isfinite(eval_mae) && eval_mae < untrained_mae,
                "eval_mae below the untrained model's");
  return 0;
}

}  // namespace

int RunTrain(const RunOptions& options, Report* report) {
  qpe::util::SetMaxThreads(kTrainThreads);
  report->Context("pool_threads", kTrainThreads);
  report->Context("batch_pairs", kBatchSize);
  report->Context("train_pairs_requested", options.smoke ? 48 : kTrainPairs);
  return options.trace ? RunTrainTraced(options, report)
                       : RunTrainUntraced(options, report);
}

}  // namespace qpebench
