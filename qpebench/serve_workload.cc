// serve_hot / serve_cold: qpe_served driven over its Unix socket by the
// load generator, plus (traced run) an in-process replay of the daemon
// worker's call order on the same generated requests.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "config/db_config.h"
#include "drift/baseline.h"
#include "drift/sentinel.h"
#include "encoder/structure_encoder.h"
#include "loadgen.h"
#include "nn/arena.h"
#include "nn/packed_batch.h"
#include "nn/simd.h"
#include "nn/tensor.h"
#include "plan/fingerprint.h"
#include "plan/linearize.h"
#include "plan/serialize.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/embedding_cache.h"
#include "serve/embedding_service.h"
#include "serve/wire_protocol.h"
#include "simdb/planner.h"
#include "simdb/workloads.h"
#include "data/plan_corpus.h"
#include "stats.h"
#include "trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace qpebench {

namespace {

namespace serve = qpe::serve;
namespace plan = qpe::plan;
namespace nn = qpe::nn;

// The two traffic mixes. Offered rates are fixed: about half the
// saturation throughput measured on a 4-core x86-64 host (AVX2, Release),
// written here once and never recomputed per run.
struct ServeSpec {
  const char* name;
  bool hot;
  int plans_per_request;
  int tenants;
  bool drift;
  double open_loop_rate;  // requests per second
  int replay_requests;    // traced run: requests replayed in-process
};

constexpr ServeSpec kServeHot = {"serve_hot", true, 8, 2, true, 2200.0, 3000};
constexpr ServeSpec kServeCold = {"serve_cold", false, 8, 1, false, 220.0, 320};

constexpr int kDaemonWorkers = 2;
constexpr int kPoolThreads = 1;     // daemon workers supply the parallelism
constexpr int kGeneratorThreads = 2;  // open loop: sender + receiver
constexpr int kOpenLoopConnections = 32;
// Closed loop on every connection: the daemon's queue never drains, so the
// rate is the workers' and not the client's round trips (thread wake-ups on
// a shared host vary far more than compute does).
constexpr int kSaturationConnections = kOpenLoopConnections;
// One STATS scrape every 2 s. Each scrape stalls the daemon for several ms
// while it copies and sorts its unbounded request history, longer the more
// requests it has served; see RunServeUntraced for where the poller runs.
constexpr double kStatsPeriodSeconds = 2.0;
constexpr int kSetupRepeats = 5;
// Latency percentiles: median over up to 5 windows of >= 1000 requests.
// Windows stay large (about 8000 requests on serve_hot), so one host stall
// delays fewer requests than lie beyond a window's p99.
constexpr size_t kLatencyWindowRequests = 1000;
constexpr size_t kLatencyWindows = 5;
constexpr uint64_t kModelSeed = 20240806;
constexpr int kHotInstancesPerTemplate = 16;
constexpr size_t kColdPoolPlans = 9000;  // > 2x the default cache (4096)
constexpr float kOracleTolerance = 1e-5f;
const char* const kTenantNames[2] = {"alpha", "beta"};

std::unique_ptr<qpe::encoder::TransformerPlanEncoder> BuildModel() {
  qpe::util::Rng rng(kModelSeed);
  return std::make_unique<qpe::encoder::TransformerPlanEncoder>(
      qpe::encoder::StructureEncoderConfig{}, &rng);
}

// Everything a serve run sets up: model, plan pool (generated from the
// seed), serialized texts, and the running daemon, warmed.
class ServeFixture {
 public:
  ServeFixture(const ServeSpec& spec, uint64_t seed, bool smoke,
               std::string socket_path)
      : spec_(spec), seed_(seed), socket_path_(std::move(socket_path)) {
    encoder_ = BuildModel();
    if (spec.hot) {
      const qpe::simdb::TpchWorkload tpch(0.05);
      const qpe::config::DbConfig db_config;
      const qpe::simdb::Planner planner(&tpch.GetCatalog(), &db_config);
      qpe::util::Rng rng(seed);
      const int instances = smoke ? 1 : kHotInstancesPerTemplate;
      for (int i = 0; i < instances; ++i) {
        for (int t = 0; t < tpch.NumTemplates(); ++t) {
          pool_.push_back(
              std::move(planner.PlanQuery(tpch.Instantiate(t, &rng)).root));
        }
      }
    } else {
      // Distinct structures only (by fingerprint), so the cyclic request
      // stream never repeats a plan within a pass over the pool.
      qpe::data::RandomPlanGenerator generator{qpe::util::Rng(seed)};
      const size_t target = smoke ? 600 : kColdPoolPlans;
      std::unordered_map<uint64_t, int> seen;
      for (size_t tries = 0; pool_.size() < target && tries < 8 * target;
           ++tries) {
        std::unique_ptr<plan::PlanNode> p = generator.Generate();
        if (seen.emplace(plan::FingerprintPlan(*p), 0).second) {
          pool_.push_back(std::move(p));
        }
      }
    }
    texts_.reserve(pool_.size());
    for (const auto& p : pool_) texts_.push_back(plan::SerializePlanNode(*p));
  }

  ~ServeFixture() { Stop(); }

  qpe::util::Status Start(const std::function<void(const GenRequest&,
                                                   const serve::EncodeResponse&)>&
                              on_warmup) {
    serve::ServingDaemonConfig config;
    config.socket_path = socket_path_;
    config.workers = kDaemonWorkers;
    if (spec_.drift) {
      // Alarm-only sentinel (no adaptation dir) whose baseline covers the
      // served plans, so it stays HEALTHY.
      config.enable_drift = true;
      config.drift_corpus = texts_;
    }
    daemon_ = std::make_unique<serve::ServingDaemon>(encoder_.get(), config);
    if (qpe::util::Status s = daemon_->Start(); !s.ok()) return s;
    qpe::util::StatusOr<serve::DaemonClient> client =
        serve::DaemonClient::Connect(socket_path_);
    if (!client.ok()) return client.status();
    for (const std::vector<uint32_t>& ids : WarmupIds()) {
      GenRequest request;
      serve::EncodeRequest encode = MakeRequest(ids, 0);
      qpe::util::StatusOr<serve::EncodeResponse> response =
          client->Encode(encode);
      if (!response.ok()) return response.status();
      request.plan_ids = ids;
      if (on_warmup) on_warmup(request, *response);
    }
    return qpe::util::OkStatus();
  }

  void Stop() {
    if (daemon_ != nullptr) {
      daemon_->Stop();
      daemon_.reset();
      std::remove(socket_path_.c_str());
    }
  }

  // Warm-up requests: every pool plan once on serve_hot (so the measured
  // phases serve from a warm cache), a few requests on serve_cold (pool
  // order is cyclic, so they never make later requests hit).
  std::vector<std::vector<uint32_t>> WarmupIds() const {
    std::vector<std::vector<uint32_t>> out;
    const size_t per = static_cast<size_t>(spec_.plans_per_request);
    const size_t count = spec_.hot ? pool_.size() : 4 * per;
    for (size_t begin = 0; begin < count; begin += per) {
      std::vector<uint32_t> ids;
      for (size_t j = begin; j < std::min(count, begin + per); ++j) {
        // serve_cold warms with the pool's tail, the farthest point from
        // where the measured stream starts.
        ids.push_back(static_cast<uint32_t>(spec_.hot ? j
                                                      : pool_.size() - 1 - j));
      }
      out.push_back(std::move(ids));
    }
    return out;
  }

  // Plan ids and tenant of request `index` of the stream. serve_hot draws
  // each plan from the pool by a hash of (seed, index, slot); serve_cold
  // walks the pool cyclically, plans_per_request at a time.
  std::vector<uint32_t> PlanIds(uint64_t index) const {
    std::vector<uint32_t> ids(static_cast<size_t>(spec_.plans_per_request));
    const uint64_t n = pool_.size();
    for (size_t j = 0; j < ids.size(); ++j) {
      const uint64_t slot = index * ids.size() + j;
      ids[j] = static_cast<uint32_t>(
          spec_.hot ? Mix64(seed_ * 0x9E3779B97F4A7C15ULL + slot) % n
                    : slot % n);
    }
    return ids;
  }
  int Tenant(uint64_t index) const {
    return spec_.tenants > 1 ? static_cast<int>(index % 2) : 0;
  }

  serve::EncodeRequest MakeRequest(const std::vector<uint32_t>& ids,
                                   int tenant) const {
    serve::EncodeRequest request;
    request.tenant = kTenantNames[tenant];
    request.plans.reserve(ids.size());
    for (const uint32_t id : ids) request.plans.push_back(texts_[id]);
    return request;
  }

  void BuildRequest(uint64_t index, GenRequest* out) const {
    out->plan_ids = PlanIds(index);
    out->tenant = Tenant(index);
    out->frame = serve::EncodeFrame(
        serve::FrameType::kEncodeRequest,
        serve::EncodeEncodeRequestPayload(
            MakeRequest(out->plan_ids, out->tenant)));
  }

  const ServeSpec& spec() const { return spec_; }
  const qpe::encoder::TransformerPlanEncoder& encoder() const {
    return *encoder_;
  }
  const std::vector<std::string>& texts() const { return texts_; }
  const std::string& socket_path() const { return socket_path_; }
  serve::ServingDaemon* daemon() { return daemon_.get(); }

 private:
  ServeSpec spec_;
  uint64_t seed_;
  std::string socket_path_;
  std::unique_ptr<qpe::encoder::TransformerPlanEncoder> encoder_;
  std::vector<std::unique_ptr<plan::PlanNode>> pool_;
  std::vector<std::string> texts_;
  std::unique_ptr<serve::ServingDaemon> daemon_;
};

// Output checks on every daemon answer: the right count and dimension, no
// stale flag, and each plan's embedding bitwise equal to the first answer
// the daemon gave for that plan. Against the oracle afterwards.
class AnswerChecker {
 public:
  AnswerChecker(size_t pool_size, int dim)
      : first_(pool_size), dim_(dim) {}

  bool Check(const GenRequest& request, const serve::EncodeResponse& response) {
    if (response.embeddings.size() != request.plan_ids.size() ||
        static_cast<int>(response.dim) != dim_ || response.stale) {
      ++malformed_;
      return false;
    }
    bool ok = true;
    for (size_t j = 0; j < request.plan_ids.size(); ++j) {
      const std::vector<float>& row = response.embeddings[j];
      std::vector<float>& first = first_[request.plan_ids[j]];
      if (row.size() != static_cast<size_t>(dim_)) {
        ++malformed_;
        ok = false;
      } else if (first.empty()) {
        first = row;
      } else if (std::memcmp(first.data(), row.data(),
                             sizeof(float) * row.size()) != 0) {
        ++repeat_mismatches_;
        ok = false;
      } else {
        ++repeats_equal_;
      }
    }
    return ok;
  }

  const std::vector<std::vector<float>>& first_answers() const {
    return first_;
  }
  uint64_t malformed() const { return malformed_; }
  uint64_t repeat_mismatches() const { return repeat_mismatches_; }
  uint64_t repeats_equal() const { return repeats_equal_; }

 private:
  std::vector<std::vector<float>> first_;
  int dim_;
  uint64_t malformed_ = 0;
  uint64_t repeat_mismatches_ = 0;
  uint64_t repeats_equal_ = 0;
};

// Encodes every plan the daemon answered with the per-plan op-chain
// Encode and compares. Returns the number of plans off by more than the
// tolerance; *max_diff receives the largest absolute difference.
uint64_t OracleCheck(const ServeFixture& fx, const AnswerChecker& checker,
                     double* max_diff, uint64_t* checked) {
  const std::vector<std::vector<float>>& first = checker.first_answers();
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < first.size(); ++i) {
    if (!first[i].empty()) ids.push_back(static_cast<uint32_t>(i));
  }
  std::vector<double> diffs(ids.size(), 0.0);
  qpe::util::SetMaxThreads(
      std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  qpe::util::ParallelRun(static_cast<int>(ids.size()), [&](int k) {
    nn::ArenaScope arena;
    nn::NoGradGuard no_grad;
    const uint32_t id = ids[static_cast<size_t>(k)];
    qpe::util::StatusOr<std::unique_ptr<plan::PlanNode>> parsed =
        plan::ParsePlanNodeChecked(fx.texts()[id]);
    if (!parsed.ok()) {
      diffs[static_cast<size_t>(k)] = std::numeric_limits<double>::infinity();
      return;
    }
    const nn::Tensor oracle = fx.encoder().Encode(**parsed, nullptr);
    const std::vector<float>& want = oracle.value();
    double worst = want.size() == first[id].size()
                       ? 0.0
                       : std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < want.size() && j < first[id].size(); ++j) {
      worst = std::max(worst, static_cast<double>(
                                  std::fabs(want[j] - first[id][j])));
    }
    diffs[static_cast<size_t>(k)] = worst;
  });
  qpe::util::SetMaxThreads(kPoolThreads);
  uint64_t bad = 0;
  *max_diff = 0;
  for (const double d : diffs) {
    if (!(d <= kOracleTolerance)) ++bad;
    if (std::isfinite(d)) *max_diff = std::max(*max_diff, d);
  }
  *checked = ids.size();
  return bad;
}

std::string SocketPath(const RunOptions& options) {
  static int counter = 0;
  return options.work_dir + "/qpebench-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++) + ".sock";
}

// A started, warmed fixture with the checker that saw its warm-up answers.
struct ServeSetUp {
  std::unique_ptr<ServeFixture> fx;  // null when set-up failed
  std::unique_ptr<AnswerChecker> checker;
  double setup_s = 0;  // median over the repeats
};

// Builds, starts and warms the fixture `repeats` times, keeping the last,
// and connects a load generator to it. On failure prints why and returns
// a null fixture.
ServeSetUp SetUp(const ServeSpec& spec, const RunOptions& options,
                 int repeats) {
  ServeSetUp out;
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    out.fx.reset();
    const double t0 = WallSeconds();
    out.fx = std::make_unique<ServeFixture>(spec, options.seed, options.smoke,
                                            SocketPath(options));
    out.checker = std::make_unique<AnswerChecker>(
        out.fx->texts().size(), out.fx->encoder().output_dim());
    AnswerChecker* checker = out.checker.get();
    const qpe::util::Status status = out.fx->Start(
        [checker](const GenRequest& request,
                  const serve::EncodeResponse& response) {
          checker->Check(request, response);
        });
    times.push_back(WallSeconds() - t0);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      out.fx.reset();
      return out;
    }
  }
  out.setup_s = Median(times);
  return out;
}

std::unique_ptr<LoadGenerator> Connect(const ServeSetUp& setup) {
  ServeFixture* fx = setup.fx.get();
  AnswerChecker* checker = setup.checker.get();
  auto gen = std::make_unique<LoadGenerator>(
      fx->socket_path(), kOpenLoopConnections,
      [fx](uint64_t i, GenRequest* out) { fx->BuildRequest(i, out); },
      [checker](const GenRequest& r, const serve::EncodeResponse& resp) {
        return checker->Check(r, resp);
      });
  if (qpe::util::Status c = gen->Connect(); !c.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", c.ToString().c_str());
    return nullptr;
  }
  return gen;
}

void ReportPhase(const PhaseResult& phase, const std::string& name,
                 Report* report) {
  report->Note(phase.Summary(name));
  report->AddAttempted(phase.attempted);
  report->AddFailed(phase.failed());
}

std::string FormatPercentiles(const std::vector<double>& ms) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%zu samples, p50 %.4f ms, p90 %.4f ms, p99 %.4f ms, "
                "p99.9 %.4f ms, highest supported percentile p%g",
                ms.size(), Percentile(ms, 50), Percentile(ms, 90),
                Percentile(ms, 99), Percentile(ms, 99.9),
                HighestSupportedPercentile(ms.size()));
  std::string out = buf;
  out += "; p99 per window of >= 1000:";
  const size_t windows = std::clamp<size_t>(
      ms.size() / kLatencyWindowRequests, 1, kLatencyWindows);
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = ms.begin() + static_cast<std::ptrdiff_t>(ms.size() * w / windows);
    const auto end = ms.begin() + static_cast<std::ptrdiff_t>(ms.size() * (w + 1) / windows);
    out += ' ';
    out += FormatNumber(Percentile(std::vector<double>(begin, end), 99));
  }
  return out;
}

// ---------------------------------------------------------------------------
// In-process replay of the daemon worker (traced run).

struct ReplayTotals {
  std::vector<double> request_us;  // per-request wall time
  std::vector<std::vector<int>> batch_lengths;  // every packed micro-batch
  uint64_t requests = 0, plans = 0, payload_bytes = 0;
  uint64_t encoded = 0, packed_rows = 0;
  serve::EmbeddingCache::Stats cache;
  double wall_s = 0;
  uint64_t mismatches = 0;
};

struct SpanIds {
  int request, offer, pop, wire_parse, plan_parse, fingerprint, lookup, pack,
      encode_batch, insert, assemble, observe, encode_response, encode_all,
      linearize;
  explicit SpanIds(Tracer* t)
      : request(t->Intern("serve.request")),
        offer(t->Intern("serve.admission.offer")),
        pop(t->Intern("serve.admission.pop")),
        wire_parse(t->Intern("serve.wire.parse_request")),
        plan_parse(t->Intern("plan.parse")),
        fingerprint(t->Intern("plan.fingerprint")),
        lookup(t->Intern("serve.cache.lookup")),
        pack(t->Intern("encoder.pack")),
        encode_batch(t->Intern("encoder.encode_batch")),
        insert(t->Intern("serve.cache.insert")),
        assemble(t->Intern("serve.response.assemble")),
        observe(t->Intern("drift.observe")),
        encode_response(t->Intern("serve.wire.encode_response")),
        encode_all(t->Intern("serve.service.encode_all")),
        linearize(t->Intern("plan.linearize")) {}
};

// One fresh copy of the worker-side state: admission controller, cache,
// drift sentinel (serve_hot) and packing workspace. Each replay pass gets
// its own, warmed with the daemon's warm-up requests, so every pass sees
// the hit/miss pattern the daemon saw.
class Replayer {
 public:
  Replayer(const ServeFixture& fx, const AnswerChecker& checker,
           Tracer* tracer, const SpanIds& ids)
      : fx_(fx),
        checker_(checker),
        tracer_(tracer),
        ids_(ids),
        admission_(serve::AdmissionController::Config{}),
        cache_(serve::EmbeddingCacheConfig{}) {
    if (fx.spec().drift) {
      std::vector<std::unique_ptr<plan::PlanNode>> corpus;
      std::vector<const plan::PlanNode*> ptrs;
      for (const std::string& text : fx.texts()) {
        corpus.push_back(plan::ParsePlanNode(text));
        ptrs.push_back(corpus.back().get());
      }
      sentinel_ = std::make_unique<qpe::drift::DriftSentinel>(
          qpe::drift::BuildDriftBaseline(fx.encoder(), ptrs));
    }
    ReplayTotals scratch;
    uint64_t index = 0;
    for (const std::vector<uint32_t>& warm : fx.WarmupIds()) {
      Serve(index++, warm, 0, nullptr, &scratch);
    }
    warm_batches_ = std::move(scratch.batch_lengths);
  }

  // Replays requests [0, count) of the stream; cache counters in *totals
  // cover this pass only, not the warm-up.
  void Run(uint64_t count, ReplayTotals* totals) {
    const serve::EmbeddingCache::Stats before = cache_.GetStats();
    const double t0 = WallSeconds();
    for (uint64_t i = 0; i < count; ++i) {
      Serve(i, fx_.PlanIds(i), fx_.Tenant(i), tracer_, totals);
    }
    totals->wall_s = WallSeconds() - t0;
    const serve::EmbeddingCache::Stats after = cache_.GetStats();
    totals->cache.hits = after.hits - before.hits;
    totals->cache.misses = after.misses - before.misses;
    totals->cache.evictions = after.evictions - before.evictions;
    totals->cache.entries = after.entries;
  }

  const std::vector<std::vector<int>>& warm_batches() const {
    return warm_batches_;
  }

 private:
  // The daemon's per-request call order: admission offer/pop, wire parse,
  // plan parse, fingerprint, cache lookup (with in-request dedup), pack +
  // EncodeBatch on misses in micro-batches, insert, response assembly,
  // drift observe, response encode.
  void Serve(uint64_t index, const std::vector<uint32_t>& plan_ids, int tenant,
             Tracer* tracer, ReplayTotals* totals) {
    const auto rid = static_cast<int64_t>(index);
    const double t_start = WallSeconds();
    ScopedSpan root(tracer, ids_.request, -1, rid);
    const int parent = root.id();
    std::string payload =
        serve::EncodeEncodeRequestPayload(fx_.MakeRequest(plan_ids, tenant));
    totals->payload_bytes += payload.size();

    std::optional<serve::QueuedRequest> work;
    {
      ScopedSpan s(tracer, ids_.offer, parent, rid);
      serve::QueuedRequest queued;
      queued.tenant = kTenantNames[tenant];
      queued.cost = static_cast<uint32_t>(plan_ids.size());
      queued.deadline = std::numeric_limits<double>::infinity();
      queued.payload = std::move(payload);
      admission_.Offer(std::move(queued), t_start);
    }
    {
      ScopedSpan s(tracer, ids_.pop, parent, rid);
      work = admission_.TryPop();
    }
    qpe::util::StatusOr<serve::EncodeRequest> request =
        qpe::util::InvalidArgumentError("not admitted");
    {
      ScopedSpan s(tracer, ids_.wire_parse, parent, rid);
      if (work.has_value()) {
        request = serve::ParseEncodeRequestPayload(work->payload, 1024);
      }
    }
    if (!request.ok()) {
      ++totals->mismatches;
      return;
    }
    const size_t n = request->plans.size();
    std::vector<std::unique_ptr<plan::PlanNode>> plans(n);
    for (size_t i = 0; i < n; ++i) {
      ScopedSpan s(tracer, ids_.plan_parse, parent, rid);
      qpe::util::StatusOr<std::unique_ptr<plan::PlanNode>> parsed =
          plan::ParsePlanNodeChecked(request->plans[i]);
      if (parsed.ok()) plans[i] = std::move(*parsed);
    }
    for (const auto& p : plans) {
      if (p == nullptr) {
        ++totals->mismatches;
        return;
      }
    }
    std::vector<uint64_t> keys(n);
    for (size_t i = 0; i < n; ++i) {
      ScopedSpan s(tracer, ids_.fingerprint, parent, rid);
      keys[i] = plan::FingerprintPlan(*plans[i]);
    }
    const int dim = fx_.encoder().output_dim();
    std::vector<std::vector<float>> rows(n);
    std::vector<const plan::PlanNode*> misses;
    std::vector<std::vector<size_t>> slots;
    std::unordered_map<uint64_t, size_t> miss_index;
    for (size_t i = 0; i < n; ++i) {
      bool hit = false;
      {
        ScopedSpan s(tracer, ids_.lookup, parent, rid);
        hit = cache_.Lookup(keys[i], &rows[i]);
      }
      if (hit) continue;
      auto [it, inserted] = miss_index.try_emplace(keys[i], misses.size());
      if (inserted) {
        misses.push_back(plans[i].get());
        slots.emplace_back();
      }
      slots[it->second].push_back(i);
    }
    const size_t batch = static_cast<size_t>(serve::EmbeddingServiceConfig{}.batch_size);
    std::vector<std::vector<float>> encoded(misses.size());
    for (size_t begin = 0; begin < misses.size(); begin += batch) {
      const size_t count = std::min(batch, misses.size() - begin);
      const std::span<const plan::PlanNode* const> chunk(misses.data() + begin,
                                                         count);
      {
        ScopedSpan s(tracer, ids_.pack, parent, rid);
        qpe::encoder::PackPlansColumns(chunk, fx_.encoder().config().max_len,
                                       &ws_);
      }
      totals->batch_lengths.push_back(ws_.lengths);
      for (const int len : ws_.lengths) totals->packed_rows += len;
      ScopedSpan s(tracer, ids_.encode_batch, parent, rid);
      nn::ArenaScope arena;
      nn::NoGradGuard no_grad;
      std::vector<nn::Tensor> out = fx_.encoder().EncodeBatch(chunk, nullptr);
      for (size_t j = 0; j < count; ++j) encoded[begin + j] = out[j].value();
    }
    totals->encoded += misses.size();
    for (size_t m = 0; m < misses.size(); ++m) {
      {
        ScopedSpan s(tracer, ids_.insert, parent, rid);
        cache_.Insert(keys[slots[m][0]], encoded[m]);
      }
      for (const size_t i : slots[m]) rows[i] = encoded[m];
    }
    serve::EncodeResponse response;
    {
      ScopedSpan s(tracer, ids_.assemble, parent, rid);
      response.dim = static_cast<uint32_t>(dim);
      response.embeddings = rows;
    }
    if (sentinel_ != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        ScopedSpan s(tracer, ids_.observe, parent, rid);
        sentinel_->Observe(*plans[i], response.embeddings[i].data(),
                           response.dim);
      }
      response.stale = sentinel_->stale();
    }
    std::string out;
    {
      ScopedSpan s(tracer, ids_.encode_response, parent, rid);
      out = serve::EncodeEncodeResponsePayload(response);
    }
    admission_.RecordCompleted(kTenantNames[tenant]);
    // The replay must produce the daemon's bits.
    for (size_t i = 0; i < n; ++i) {
      const std::vector<float>& first = checker_.first_answers()[plan_ids[i]];
      if (!first.empty() && first != response.embeddings[i]) {
        ++totals->mismatches;
      }
    }
    if (response.stale) ++totals->mismatches;
    ++totals->requests;
    totals->plans += n;
    totals->request_us.push_back((WallSeconds() - t_start) * 1e6);
  }

  const ServeFixture& fx_;
  const AnswerChecker& checker_;
  Tracer* tracer_;
  const SpanIds& ids_;
  serve::AdmissionController admission_;
  serve::EmbeddingCache cache_;
  std::unique_ptr<qpe::drift::DriftSentinel> sentinel_;
  nn::PackedBatch ws_;
  std::vector<std::vector<int>> warm_batches_;
};

// EmbeddingService::EncodeAll on the same requests (fresh, warmed service)
// and LinearizeDfsBracket on the same plans, each call one span.
void ProbeServiceAndLinearize(const ServeFixture& fx, uint64_t count,
                              Tracer* tracer, const SpanIds& ids,
                              double* encode_all_us_per_plan,
                              double* linearize_us_per_plan) {
  serve::EmbeddingService service(&fx.encoder(), serve::EmbeddingServiceConfig{});
  auto parse_all = [&](const std::vector<uint32_t>& plan_ids) {
    std::vector<std::unique_ptr<plan::PlanNode>> plans;
    for (const uint32_t id : plan_ids) {
      plans.push_back(plan::ParsePlanNode(fx.texts()[id]));
    }
    return plans;
  };
  auto ptrs_of = [](const std::vector<std::unique_ptr<plan::PlanNode>>& v) {
    std::vector<const plan::PlanNode*> out;
    for (const auto& p : v) out.push_back(p.get());
    return out;
  };
  for (const std::vector<uint32_t>& warm : fx.WarmupIds()) {
    const auto plans = parse_all(warm);
    (void)service.EncodeAll(ptrs_of(plans));
  }
  double encode_all_us = 0, linearize_us = 0;
  uint64_t plans_total = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const auto plans = parse_all(fx.PlanIds(i));
    const std::vector<const plan::PlanNode*> ptrs = ptrs_of(plans);
    double t = WallSeconds();
    {
      ScopedSpan s(tracer, ids.encode_all, -1, static_cast<int64_t>(i));
      (void)service.EncodeAll(ptrs);
    }
    encode_all_us += (WallSeconds() - t) * 1e6;
    for (const plan::PlanNode* p : ptrs) {
      t = WallSeconds();
      {
        ScopedSpan s(tracer, ids.linearize, -1, static_cast<int64_t>(i));
        (void)plan::LinearizeDfsBracket(*p);
      }
      linearize_us += (WallSeconds() - t) * 1e6;
    }
    plans_total += ptrs.size();
  }
  const double denom = plans_total > 0 ? static_cast<double>(plans_total) : 1;
  *encode_all_us_per_plan = encode_all_us / denom;
  *linearize_us_per_plan = linearize_us / denom;
}

int RunServeTraced(const ServeSpec& spec, const RunOptions& options,
                   Report* report) {
  const ServeSetUp setup = SetUp(spec, options, 1);
  if (setup.fx == nullptr) return 2;
  ServeFixture* fx = setup.fx.get();
  const AnswerChecker* checker = setup.checker.get();
  const double s = options.seconds;

  // Daemon-side probes at idle: the IPC floor.
  std::vector<double> ping_us;
  {
    qpe::util::StatusOr<serve::DaemonClient> client =
        serve::DaemonClient::Connect(fx->socket_path());
    for (int i = 0; client.ok() && i < (options.smoke ? 20 : 400); ++i) {
      const double t0 = WallSeconds();
      if (!client->Ping().ok()) break;
      ping_us.push_back((WallSeconds() - t0) * 1e6);
    }
  }
  report->Set("util.socket.ping_rtt_us", Median(ping_us));

  const std::unique_ptr<LoadGenerator> gen = Connect(setup);
  if (gen == nullptr) return 2;
  // Low load: one connection, closed loop. Its p50 minus the replayed
  // stage sum is the time no replayed stage accounts for.
  const PhaseResult low = gen->RunClosedLoop(0.15 * s, 1);
  ReportPhase(low, "low-load", report);
  StatsPoller poller(fx->socket_path(), kStatsPeriodSeconds);
  poller.Start();
  const PhaseResult sat = gen->RunClosedLoop(0.15 * s, kSaturationConnections);
  const PhaseResult open =
      gen->RunOpenLoop(spec.open_loop_rate, 0.3 * s, options.seed);
  poller.Stop();
  ReportPhase(sat, "saturation", report);
  ReportPhase(open, "open-loop", report);
  const serve::DaemonStats daemon_stats = fx->daemon()->GetStats();
  fx->Stop();

  report->Set("serve.admission.queue_depth_max", poller.max_queue_depth());
  report->Set("serve.admission.shed",
              static_cast<double>(low.shed + sat.shed + open.shed));
  if (spec.tenants > 1) {
    const double a = static_cast<double>(sat.tenant_succeeded[0]);
    const double b = static_cast<double>(sat.tenant_succeeded[1]);
    report->Set("serve.admission.fairness",
                std::max(a, b) > 0 ? std::min(a, b) / std::max(a, b) : 0);
  }
  report->Set("serve.service.stats_ms", Median(poller.round_trips_ms()));
  report->Set("loadgen.lag_p99_ms", Percentile(open.lag_ms, 99));
  report->Set("latency.p50_ms",
              WindowedPercentile(open.latencies_ms, 50,
                                 kLatencyWindowRequests, kLatencyWindows));
  report->Set("latency.p99_ms",
              WindowedPercentile(open.latencies_ms, 99,
                                 kLatencyWindowRequests, kLatencyWindows));
  report->Set("drift.daemon_observe_us_per_plan",
              daemon_stats.drift_observe_us_per_plan);
  const double low_p50_us = Median(low.latencies_ms) * 1e3;
  report->Set("serve.low_load_p50_us", low_p50_us);

  // In-process replay: untraced and traced passes alternate twice, each on
  // fresh warmed state; per-layer numbers come from the last traced pass,
  // the tracing overhead from all four. Then the service and linearization
  // probes.
  const uint64_t count = options.smoke ? 20 : spec.replay_requests;
  Tracer tracer(true);
  const SpanIds ids(&tracer);
  ReplayTotals untraced, traced;
  double untraced_s = 0, traced_s = 0;
  std::vector<std::vector<int>> shapes;
  uint64_t replay_mismatches = 0, replay_requests = 0;
  for (int round = 0; round < 2; ++round) {
    untraced = ReplayTotals{};
    traced = ReplayTotals{};
    tracer.Clear();
    {
      Replayer replayer(*fx, *checker, nullptr, ids);
      replayer.Run(count, &untraced);
    }
    {
      Replayer replayer(*fx, *checker, &tracer, ids);
      replayer.Run(count, &traced);
      shapes = replayer.warm_batches();
    }
    untraced_s += untraced.wall_s;
    traced_s += traced.wall_s;
    replay_mismatches += untraced.mismatches + traced.mismatches;
    replay_requests += untraced.requests + traced.requests;
  }
  shapes.insert(shapes.end(), traced.batch_lengths.begin(),
                traced.batch_lengths.end());
  const std::vector<Span> replay_spans = tracer.spans();
  double encode_all_us_per_plan = 0, linearize_us_per_plan = 0;
  ProbeServiceAndLinearize(*fx, count, &tracer, ids, &encode_all_us_per_plan,
                           &linearize_us_per_plan);

  const std::map<std::string, SpanTotals> by_name =
      TotalsByName(replay_spans, tracer.names());
  auto mean_us = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.MeanUs();
  };
  auto total_us = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.total_us;
  };
  const double plans = traced.plans > 0 ? static_cast<double>(traced.plans) : 1;
  report->Set("serve.wire.parse_request_us", mean_us("serve.wire.parse_request"));
  report->Set("serve.wire.encode_response_us",
              mean_us("serve.wire.encode_response"));
  report->Set("serve.wire.bytes_per_plan",
              static_cast<double>(traced.payload_bytes) / plans);
  report->Set("serve.admission.offer_us", mean_us("serve.admission.offer"));
  report->Set("serve.admission.pop_us", mean_us("serve.admission.pop"));
  report->Set("plan.parse_us_per_plan", mean_us("plan.parse"));
  report->Set("plan.fingerprint_us_per_plan", mean_us("plan.fingerprint"));
  report->Set("plan.linearize_us_per_plan", linearize_us_per_plan);
  report->Set("serve.cache.lookup_us", mean_us("serve.cache.lookup"));
  report->Set("serve.cache.insert_us", mean_us("serve.cache.insert"));
  report->Set("serve.cache.evictions", static_cast<double>(traced.cache.evictions));
  const uint64_t lookups = traced.cache.hits + traced.cache.misses;
  report->Set("serve.cache.hit_rate", traced.cache.HitRate());
  report->Set("serve.cache.lookups", static_cast<double>(lookups));
  report->Note("serve.cache.hit_rate base: " + std::to_string(traced.cache.hits) +
               " hits / " + std::to_string(lookups) + " lookups (replay pass)");
  report->Set("serve.response.assemble_us", mean_us("serve.response.assemble"));
  report->Set("serve.service.encode_all_us_per_plan", encode_all_us_per_plan);
  const double replayed_service_us =
      (total_us("plan.fingerprint") + total_us("serve.cache.lookup") +
       total_us("encoder.encode_batch") + total_us("serve.cache.insert")) /
      plans;
  report->Set("serve.service.self_us_per_plan",
              encode_all_us_per_plan - replayed_service_us);
  const double encoded = traced.encoded > 0 ? static_cast<double>(traced.encoded) : 1;
  report->Set("encoder.pack_us_per_plan", total_us("encoder.pack") / encoded);
  report->Set("encoder.encode_batch_us_per_plan",
              total_us("encoder.encode_batch") / encoded);
  report->Set("encoder.tokens_per_plan",
              traced.encoded > 0 ? static_cast<double>(traced.packed_rows) / encoded : 0);
  report->Set("encoder.rows_per_batch",
              traced.batch_lengths.empty()
                  ? 0
                  : static_cast<double>(traced.packed_rows) /
                        static_cast<double>(traced.batch_lengths.size()));
  report->Set("drift.observe_us_per_plan", mean_us("drift.observe"));
  const double stage_sum_us = Median(untraced.request_us);
  report->Set("serve.stage_sum_us", stage_sum_us);
  report->Set("serve.unattributed_us", low_p50_us - stage_sum_us);

  // Self time by module over the replayed requests.
  double module_self[5] = {0, 0, 0, 0, 0};  // serve, plan, encoder, drift, glue
  double root_total = 0;
  for (const auto& [name, totals] : by_name) {
    if (name == "serve.request") {
      module_self[4] += totals.self_us;
      root_total += totals.total_us;
    } else if (name.rfind("serve.", 0) == 0) {
      module_self[0] += totals.self_us;
    } else if (name.rfind("plan.", 0) == 0) {
      module_self[1] += totals.self_us;
    } else if (name.rfind("encoder.", 0) == 0) {
      module_self[2] += totals.self_us;
    } else if (name.rfind("drift.", 0) == 0) {
      module_self[3] += totals.self_us;
    }
  }
  const char* share_names[5] = {"share.serve_pct", "share.plan_pct",
                                "share.encoder_nn_pct", "share.drift_pct",
                                "share.glue_pct"};
  for (int m = 0; m < 5; ++m) {
    report->Set(share_names[m],
                root_total > 0 ? 100.0 * module_self[m] / root_total : 0);
  }
  report->Set("trace.overhead_pct",
              untraced_s > 0 ? 100.0 * (traced_s - untraced_s) / untraced_s : 0);
  report->Set("trace.spans", static_cast<double>(tracer.spans().size()));

  ReportKernelReplay(
      ReplayKernels(shapes, fx->encoder().config(), options.smoke ? 1 : 3),
      report);

  const std::string span_path =
      options.work_dir + "/spans-" + spec.name + "-" +
      std::to_string(options.seed) + ".tsv";
  report->Check(tracer.WriteTsv(span_path), "spans written to " + span_path);
  report->Check(replay_mismatches == 0,
                "replayed embeddings equal the daemon's answers bitwise");
  report->Check(checker->repeat_mismatches() == 0 && checker->malformed() == 0,
                "daemon answers well-formed, not stale, and repeat-stable");
  report->AddFailed(replay_mismatches);
  report->AddAttempted(replay_requests);
  return 0;
}

int RunServeUntraced(const ServeSpec& spec, const RunOptions& options,
                     Report* report) {
  const ServeSetUp setup =
      SetUp(spec, options, options.smoke ? 1 : kSetupRepeats);
  if (setup.fx == nullptr) return 2;
  ServeFixture* fx = setup.fx.get();
  const AnswerChecker* checker = setup.checker.get();
  const std::unique_ptr<LoadGenerator> gen = Connect(setup);
  if (gen == nullptr) return 2;
  // The open loop runs first and without the STATS poller. A scrape's
  // stall grows with the daemon's request history, so with scrapes in the
  // latency phase the late windows' p99 read the stall and the early ones
  // did not, and the median window flipped between the two from run to
  // run. The poller runs during the closed loop instead, where its stalls
  // cost a fraction of a percent of throughput.
  const double s = options.seconds;
  const PhaseResult open =
      gen->RunOpenLoop(spec.open_loop_rate, 0.65 * s, options.seed);
  StatsPoller poller(fx->socket_path(), kStatsPeriodSeconds);
  poller.Start();
  const PhaseResult sat = gen->RunClosedLoop(0.35 * s, kSaturationConnections);
  poller.Stop();
  const serve::DaemonStats daemon_stats = fx->daemon()->GetStats();
  fx->Stop();

  ReportPhase(sat, "saturation", report);
  ReportPhase(open, "open-loop", report);
  report->Note("saturation latency: " + FormatPercentiles(sat.latencies_ms));
  report->Note("open-loop latency (from due time): " +
               FormatPercentiles(open.latencies_ms));
  {
    std::string rates = "saturation plans/s per window:";
    for (const uint64_t plans : sat.window_plans) {
      rates += ' ';
      rates += FormatNumber(static_cast<double>(plans) * kRateWindows /
                            sat.window_seconds);
    }
    report->Note(rates);
  }
  report->Note("generator lag: mean " + FormatNumber(Mean(open.lag_ms)) +
               " ms, p99 " + FormatNumber(Percentile(open.lag_ms, 99)) +
               " ms, max " + FormatNumber(Percentile(open.lag_ms, 100)) + " ms");
  report->Note("daemon cache hit rate " +
               FormatNumber(daemon_stats.service.cache.HitRate()) + " (" +
               std::to_string(daemon_stats.service.cache.hits) + " hits / " +
               std::to_string(daemon_stats.service.cache.hits +
                              daemon_stats.service.cache.misses) +
               " lookups)");
  report->Note("stats poller: " + std::to_string(poller.round_trips_ms().size()) +
               " polls, " + std::to_string(poller.errors()) +
               " errors, max queue depth " +
               std::to_string(poller.max_queue_depth()));

  report->Set("setup_s", setup.setup_s);
  report->Set("throughput_plans_per_sec", sat.MedianWindowRate());
  // Median over open-loop windows of >= 1000 requests each, so every
  // window supports its own p99.
  report->Extra("p50_ms", WindowedPercentile(open.latencies_ms, 50,
                                             kLatencyWindowRequests,
                                             kLatencyWindows),
                "ms");
  report->Extra("p99_ms", WindowedPercentile(open.latencies_ms, 99,
                                             kLatencyWindowRequests,
                                             kLatencyWindows),
                "ms");
  report->Set("cpu_us_per_plan",
              open.plans_succeeded > 0
                  ? open.cpu_seconds * 1e6 /
                        static_cast<double>(open.plans_succeeded)
                  : 0);
  report->Set("peak_rss_mb", PeakRssMb());
  report->Extra("generator_lag_ms", Mean(open.lag_ms), "ms");
  report->Extra("open_loop_failure_share", open.FailureShare(), "ratio");
  report->Extra("saturation_failure_share", sat.FailureShare(), "ratio");

  double max_diff = 0;
  uint64_t checked = 0;
  const uint64_t oracle_bad = OracleCheck(*fx, *checker, &max_diff, &checked);
  report->Check(oracle_bad == 0,
                "daemon embeddings of " + std::to_string(checked) +
                    " distinct plans match the per-plan Encode oracle within "
                    "1e-5 (max abs diff " + FormatNumber(max_diff) + ")");
  report->Check(checker->repeat_mismatches() == 0,
                std::to_string(checker->repeats_equal()) +
                    " repeat answers bitwise equal to the first answer");
  report->Check(checker->malformed() == 0,
                "answers well-formed and never stale");
  report->Check(sat.mismatched + open.mismatched == 0,
                "no mismatched requests");
  report->Check(open.succeeded > 0 && sat.succeeded > 0,
                "both phases completed requests");
  report->AddFailed(oracle_bad);
  return 0;
}

}  // namespace

int RunServe(const RunOptions& options, bool hot, Report* report) {
  const ServeSpec& spec = hot ? kServeHot : kServeCold;
  qpe::util::SetMaxThreads(kPoolThreads);
  report->Context("daemon_workers", kDaemonWorkers);
  report->Context("pool_threads", kPoolThreads);
  report->Context("generator_threads", kGeneratorThreads);
  report->Context("client_connections",
                  std::to_string(kSaturationConnections) + " closed-loop, " +
                      std::to_string(kOpenLoopConnections) + " open-loop");
  report->Context("offered_rate_requests_per_s", spec.open_loop_rate);
  report->Context("plans_per_request", spec.plans_per_request);
  report->Context("tenants", spec.tenants);
  report->Context("drift_sentinel", spec.drift ? "on (alarm-only)" : "off");
  return options.trace ? RunServeTraced(spec, options, report)
                       : RunServeUntraced(spec, options, report);
}

}  // namespace qpebench
