// Serving-layer tests: batched-vs-single encode bit-exactness across batch
// sizes and thread counts, the plan-fingerprint, the sharded LRU embedding
// cache (determinism, eviction order, counters), and the EmbeddingService
// facade (dedup, warm-replay hit rate, concurrent callers).

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "config/db_config.h"
#include "data/plan_corpus.h"
#include "encoder/structure_encoder.h"
#include "gtest/gtest.h"
#include "nn/simd.h"
#include "nn/tensor.h"
#include "plan/fingerprint.h"
#include "plan/linearize.h"
#include "plan/plan_node.h"
#include "serve/embedding_cache.h"
#include "serve/embedding_service.h"
#include "simdb/planner.h"
#include "simdb/workloads.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qpe {
namespace {

encoder::StructureEncoderConfig SmallConfig() {
  encoder::StructureEncoderConfig config;
  config.level1_dim = 12;
  config.level2_dim = 6;
  config.level3_dim = 6;
  config.num_heads = 2;
  config.ff_dim = 32;
  config.num_layers = 2;
  config.max_len = 128;
  config.dropout = 0.0f;
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

// Restores the global thread count on scope exit.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(util::MaxThreads()) {}
  ~ThreadCountGuard() { util::SetMaxThreads(saved_); }

 private:
  int saved_;
};

// Restores the dispatched kernel table on scope exit.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : saved_(nn::simd::ActiveLevel()) {}
  ~SimdLevelGuard() { nn::simd::ForceLevel(saved_); }

 private:
  nn::simd::Level saved_;
};

// --- Batched-vs-single bit-exactness ---------------------------------------

TEST(EncodeBatchTest, BitExactAcrossBatchSizesAndThreadCounts) {
  ThreadCountGuard guard;
  util::Rng rng(41);
  const encoder::TransformerPlanEncoder encoder(SmallConfig(), &rng);
  for (const int batch : {1, 3, 17}) {
    const auto plans = SamplePlans(batch, 100 + batch);
    const auto ptrs = Pointers(plans);
    for (const int threads : {1, 4}) {
      util::SetMaxThreads(threads);
      nn::NoGradGuard no_grad;
      const std::vector<nn::Tensor> batched =
          encoder.EncodeBatch(ptrs, nullptr);
      ASSERT_EQ(static_cast<int>(batched.size()), batch);
      for (int i = 0; i < batch; ++i) {
        const nn::Tensor single = encoder.Encode(*plans[i], nullptr);
        ASSERT_EQ(batched[i].rows(), 1);
        ASSERT_EQ(batched[i].cols(), single.cols());
        for (int c = 0; c < single.cols(); ++c) {
          // Exact float equality: the packed batch path must be
          // bit-identical to the single-plan path.
          EXPECT_EQ(batched[i].at(0, c), single.at(0, c))
              << "batch " << batch << " threads " << threads << " plan " << i
              << " dim " << c;
        }
      }
    }
  }
}

TEST(EncodeBatchTest, BitExactWithProjectionHead) {
  util::Rng rng(42);
  encoder::StructureEncoderConfig config = SmallConfig();
  config.output_dim = 16;
  const encoder::TransformerPlanEncoder encoder(config, &rng);
  const auto plans = SamplePlans(5, 7);
  nn::NoGradGuard no_grad;
  const auto batched = encoder.EncodeBatch(Pointers(plans), nullptr);
  for (size_t i = 0; i < plans.size(); ++i) {
    const nn::Tensor single = encoder.Encode(*plans[i], nullptr);
    ASSERT_EQ(batched[i].cols(), 16);
    for (int c = 0; c < 16; ++c) EXPECT_EQ(batched[i].at(0, c), single.at(0, c));
  }
}

TEST(EncodeBatchTest, TruncatesLongPlansLikeSinglePath) {
  util::Rng rng(43);
  encoder::StructureEncoderConfig config = SmallConfig();
  config.max_len = 16;  // force truncation: linearizations exceed this
  const encoder::TransformerPlanEncoder encoder(config, &rng);
  const auto plans = SamplePlans(3, 11, /*max_nodes=*/40);
  nn::NoGradGuard no_grad;
  const auto batched = encoder.EncodeBatch(Pointers(plans), nullptr);
  for (size_t i = 0; i < plans.size(); ++i) {
    const nn::Tensor single = encoder.Encode(*plans[i], nullptr);
    for (int c = 0; c < single.cols(); ++c) {
      EXPECT_EQ(batched[i].at(0, c), single.at(0, c));
    }
  }
}

TEST(EncodeBatchTest, EmptyBatchReturnsEmpty) {
  util::Rng rng(44);
  const encoder::TransformerPlanEncoder encoder(SmallConfig(), &rng);
  EXPECT_TRUE(encoder.EncodeBatch({}, nullptr).empty());
}

TEST(EncodeBatchTest, BaseClassLoopMatchesEncode) {
  // Non-transformer encoders use the default per-plan loop.
  util::Rng rng(45);
  const encoder::FnnPlanEncoder encoder(16, 8, &rng);
  const auto plans = SamplePlans(4, 13);
  const auto batched = encoder.EncodeBatch(Pointers(plans), nullptr);
  for (size_t i = 0; i < plans.size(); ++i) {
    const nn::Tensor single = encoder.Encode(*plans[i], nullptr);
    for (int c = 0; c < single.cols(); ++c) {
      EXPECT_EQ(batched[i].at(0, c), single.at(0, c));
    }
  }
}

TEST(EncodeBatchTest, GradEnabledBatchMatchesEncodeAndBackpropagates) {
  // Without a NoGradGuard EncodeBatch must record a graph, so it takes the
  // per-plan loop: the same bits as Encode even at the hardware SIMD level,
  // with gradients that reach the embedding tables.
  SimdLevelGuard level_guard;
  nn::simd::ForceLevel(nn::simd::HardwareLevel());
  util::Rng rng(46);
  encoder::TransformerPlanEncoder encoder(SmallConfig(), &rng);
  const auto plans = SamplePlans(4, 17);
  const std::vector<nn::Tensor> batched =
      encoder.EncodeBatch(Pointers(plans), nullptr);
  ASSERT_EQ(batched.size(), plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    const nn::Tensor single = encoder.Encode(*plans[i], nullptr);
    ASSERT_EQ(batched[i].cols(), single.cols());
    for (int c = 0; c < single.cols(); ++c) {
      EXPECT_EQ(batched[i].at(0, c), single.at(0, c)) << "plan " << i;
    }
  }

  encoder.ZeroGrad();
  Sum(batched[0]).Backward();
  bool nonzero = false;
  for (const auto& [name, tensor] : encoder.NamedParameters()) {
    if (name != "embed1.table") continue;
    for (const float g : tensor.grad()) nonzero = nonzero || g != 0.0f;
  }
  EXPECT_TRUE(nonzero);
}

// --- Plan fingerprints ------------------------------------------------------

TEST(FingerprintTest, StableAndCloneInvariant) {
  const auto plans = SamplePlans(6, 21);
  for (const auto& p : plans) {
    const uint64_t fp = plan::FingerprintPlan(*p);
    EXPECT_EQ(fp, plan::FingerprintPlan(*p));  // deterministic
    const auto clone = p->Clone();
    EXPECT_EQ(fp, plan::FingerprintPlan(*clone));  // structure-only
    EXPECT_EQ(fp, plan::FingerprintTokens(plan::LinearizeDfsBracket(*p)));
  }
}

// Warm snapshots are keyed by fingerprints, so their bits are pinned.
TEST(FingerprintTest, BitsArePinned) {
  std::vector<plan::OperatorType> tokens(3);
  tokens[0].level1 = 1;
  tokens[1].level2 = 2;
  tokens[2].level3 = 3;
  EXPECT_EQ(plan::FingerprintTokens(tokens), 0x6A1384DE0A9227E5ULL);
}

TEST(FingerprintTest, CollisionSanityOnAllWorkloadTemplates) {
  // One plan per template across all four benchmark workloads (the
  // repo's 175-template catalog: TPC-H 22, TPC-DS 20, JOB 113, Spatial 20).
  std::vector<std::unique_ptr<plan::PlanNode>> plans;
  util::Rng rng(99);
  const config::DbConfig db_config;
  const auto add_workload = [&](const simdb::BenchmarkWorkload& workload) {
    simdb::Planner planner(&workload.GetCatalog(), &db_config);
    for (int t = 0; t < workload.NumTemplates(); ++t) {
      plans.push_back(
          std::move(planner.PlanQuery(workload.Instantiate(t, &rng)).root));
    }
  };
  add_workload(simdb::TpchWorkload(0.05));
  add_workload(simdb::TpcdsWorkload(0.05, 20));
  add_workload(simdb::JobWorkload());
  add_workload(simdb::SpatialWorkload());
  ASSERT_EQ(plans.size(), 175u);

  // Fingerprints must agree exactly with token-sequence identity: equal
  // sequences share a fingerprint, distinct sequences must not collide
  // (at 175 keys a 64-bit hash collision indicates a broken hash).
  std::map<std::string, uint64_t> by_tokens;
  std::map<uint64_t, std::string> by_fingerprint;
  for (const auto& p : plans) {
    const auto tokens = plan::LinearizeDfsBracket(*p);
    std::string token_key;
    token_key.reserve(tokens.size() * 3);
    for (const auto& t : tokens) {
      token_key.push_back(static_cast<char>(t.level1));
      token_key.push_back(static_cast<char>(t.level2));
      token_key.push_back(static_cast<char>(t.level3));
    }
    const uint64_t fp = plan::FingerprintTokens(tokens);
    const auto [tok_it, tok_new] = by_tokens.try_emplace(token_key, fp);
    EXPECT_EQ(tok_it->second, fp);  // same tokens -> same fingerprint
    const auto [fp_it, fp_new] = by_fingerprint.try_emplace(fp, token_key);
    EXPECT_EQ(fp_it->second, token_key);  // same fingerprint -> same tokens
  }
  EXPECT_EQ(by_tokens.size(), by_fingerprint.size());
  EXPECT_GT(by_tokens.size(), 50u);  // the catalog is structurally diverse
}

// --- Embedding cache --------------------------------------------------------

TEST(EmbeddingCacheTest, HitReturnsIdenticalEmbeddingAndCounts) {
  serve::EmbeddingCacheConfig config;
  config.capacity = 8;
  config.shards = 2;
  serve::EmbeddingCache cache(config);
  const std::vector<float> embedding = {1.5f, -2.25f, 0.0f, 3.75f};
  EXPECT_FALSE(cache.Lookup(42, nullptr));  // miss
  cache.Insert(42, embedding);
  std::vector<float> out;
  ASSERT_TRUE(cache.Lookup(42, &out));
  EXPECT_EQ(out, embedding);  // exact bytes back
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(EmbeddingCacheTest, EvictsInLruOrder) {
  serve::EmbeddingCacheConfig config;
  config.capacity = 3;
  config.shards = 1;  // single shard: one global LRU order
  serve::EmbeddingCache cache(config);
  cache.Insert(1, {1.0f});
  cache.Insert(2, {2.0f});
  cache.Insert(3, {3.0f});
  // Touch 1 so 2 becomes the least recently used.
  EXPECT_TRUE(cache.Lookup(1, nullptr));
  cache.Insert(4, {4.0f});
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));  // evicted
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));
  cache.Insert(5, {5.0f});
  EXPECT_FALSE(cache.Contains(3));  // next LRU out
  EXPECT_EQ(cache.GetStats().evictions, 2u);
  EXPECT_EQ(cache.GetStats().entries, 3u);
}

TEST(EmbeddingCacheTest, ReinsertRefreshesInsteadOfEvicting) {
  serve::EmbeddingCacheConfig config;
  config.capacity = 2;
  config.shards = 1;
  serve::EmbeddingCache cache(config);
  cache.Insert(1, {1.0f});
  cache.Insert(2, {2.0f});
  cache.Insert(1, {1.5f});  // refresh: 2 is now LRU
  cache.Insert(3, {3.0f});
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  std::vector<float> out;
  ASSERT_TRUE(cache.Lookup(1, &out));
  EXPECT_EQ(out[0], 1.5f);  // refreshed value
}

TEST(EmbeddingCacheTest, ClearResetsEntriesAndCounters) {
  serve::EmbeddingCache cache;
  cache.Insert(7, {1.0f});
  EXPECT_TRUE(cache.Lookup(7, nullptr));
  cache.Clear();
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_FALSE(cache.Contains(7));
}

// --- EmbeddingService -------------------------------------------------------

TEST(EmbeddingServiceTest, ServesBitExactEmbeddingsColdAndWarm) {
  util::Rng rng(51);
  const encoder::TransformerPlanEncoder encoder(SmallConfig(), &rng);
  serve::EmbeddingService service(&encoder);
  const auto plans = SamplePlans(9, 31);
  const auto ptrs = Pointers(plans);
  const auto cold = service.EncodeAll(ptrs);
  const auto warm = service.EncodeAll(ptrs);  // all hits
  nn::NoGradGuard no_grad;
  for (size_t i = 0; i < plans.size(); ++i) {
    const nn::Tensor reference = encoder.Encode(*plans[i], nullptr);
    for (int c = 0; c < reference.cols(); ++c) {
      EXPECT_EQ(cold[i].at(0, c), reference.at(0, c)) << "cold " << i;
      EXPECT_EQ(warm[i].at(0, c), reference.at(0, c)) << "warm " << i;
    }
  }
  const auto stats = service.GetStats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.plans, 2 * plans.size());
  EXPECT_EQ(stats.cache.hits, plans.size());
}

TEST(EmbeddingServiceTest, DeduplicatesRepeatsWithinOneRequest) {
  util::Rng rng(52);
  const encoder::TransformerPlanEncoder encoder(SmallConfig(), &rng);
  serve::EmbeddingService service(&encoder);
  const auto plans = SamplePlans(1, 33);
  std::vector<const plan::PlanNode*> repeated(8, plans[0].get());
  const auto results = service.EncodeAll(repeated);
  ASSERT_EQ(results.size(), 8u);
  for (int i = 1; i < 8; ++i) {
    for (int c = 0; c < results[0].cols(); ++c) {
      EXPECT_EQ(results[i].at(0, c), results[0].at(0, c));
    }
  }
  // Eight plans served, but the encoder ran exactly once.
  const auto stats = service.GetStats();
  EXPECT_EQ(stats.plans, 8u);
  EXPECT_EQ(stats.encoded_plans, 1u);
}

TEST(EmbeddingServiceTest, TemplateReplayReachesWarmHitRate) {
  // A workload replaying its templates: the first pass misses, the
  // following replays hit. Ten passes -> 90% hit rate, the acceptance
  // threshold of the serving layer.
  util::Rng rng(53);
  const encoder::TransformerPlanEncoder encoder(SmallConfig(), &rng);
  serve::EmbeddingService service(&encoder);
  util::Rng plan_rng(54);
  const config::DbConfig db_config;
  const simdb::TpchWorkload tpch(0.05);
  simdb::Planner planner(&tpch.GetCatalog(), &db_config);
  std::vector<std::unique_ptr<plan::PlanNode>> plans;
  for (int t = 0; t < tpch.NumTemplates(); ++t) {
    plans.push_back(
        std::move(planner.PlanQuery(tpch.Instantiate(t, &plan_rng)).root));
  }
  const auto ptrs = Pointers(plans);
  for (int pass = 0; pass < 10; ++pass) (void)service.EncodeAll(ptrs);
  const auto stats = service.GetStats();
  EXPECT_EQ(stats.plans, 10u * plans.size());
  EXPECT_GE(stats.cache.HitRate(), 0.9);
  EXPECT_GT(stats.plans_per_second, 0.0);
  EXPECT_GE(stats.p99_ms, stats.p50_ms);
}

TEST(EmbeddingServiceTest, EvictionKeepsServingCorrectEmbeddings) {
  util::Rng rng(55);
  const encoder::TransformerPlanEncoder encoder(SmallConfig(), &rng);
  serve::EmbeddingServiceConfig config;
  config.cache.capacity = 4;  // far smaller than the plan set
  config.cache.shards = 1;
  serve::EmbeddingService service(&encoder, config);
  const auto plans = SamplePlans(12, 35);
  const auto ptrs = Pointers(plans);
  (void)service.EncodeAll(ptrs);
  const auto again = service.EncodeAll(ptrs);
  EXPECT_GT(service.GetStats().cache.evictions, 0u);
  nn::NoGradGuard no_grad;
  for (size_t i = 0; i < plans.size(); ++i) {
    const nn::Tensor reference = encoder.Encode(*plans[i], nullptr);
    for (int c = 0; c < reference.cols(); ++c) {
      EXPECT_EQ(again[i].at(0, c), reference.at(0, c));
    }
  }
}

TEST(EmbeddingServiceTest, CacheDisabledStillServes) {
  util::Rng rng(56);
  const encoder::TransformerPlanEncoder encoder(SmallConfig(), &rng);
  serve::EmbeddingServiceConfig config;
  config.cache.capacity = 0;
  serve::EmbeddingService service(&encoder, config);
  const auto plans = SamplePlans(3, 37);
  const auto ptrs = Pointers(plans);
  (void)service.EncodeAll(ptrs);
  (void)service.EncodeAll(ptrs);
  const auto stats = service.GetStats();
  EXPECT_EQ(stats.encoded_plans, 6u);  // every plan re-encoded
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 0u);
  EXPECT_EQ(service.cache(), nullptr);
}

TEST(EmbeddingServiceTest, LatencySamplesStayBoundedOverLongRuns) {
  // A daemon's service lives for the whole process: its latency samples
  // must be a fixed-size window of the most recent requests, not a log.
  util::Rng rng(58);
  const encoder::TransformerPlanEncoder encoder(SmallConfig(), &rng);
  serve::EmbeddingService service(&encoder);
  const auto plans = SamplePlans(1, 38);
  constexpr size_t kWindow = serve::EmbeddingService::kLatencyWindow;
  for (size_t i = 0; i < kWindow + 100; ++i) {
    (void)service.EncodeOne(*plans[0]);
  }
  const auto stats = service.GetStats();
  EXPECT_EQ(stats.requests, kWindow + 100);
  EXPECT_EQ(stats.latency_samples, kWindow);
  EXPECT_GT(stats.p99_ms, 0.0);
  EXPECT_LE(stats.p50_ms, stats.p99_ms);
}

TEST(EmbeddingServiceTest, ConcurrentCallersSeeConsistentEmbeddings) {
  // Several request threads share one service and one cache; run under
  // TSan by scripts/verify_threading.sh. Every caller must read
  // bit-identical embeddings whether it encoded or hit the cache.
  util::Rng rng(57);
  const encoder::TransformerPlanEncoder encoder(SmallConfig(), &rng);
  serve::EmbeddingService service(&encoder);
  const auto plans = SamplePlans(10, 39);
  const auto ptrs = Pointers(plans);
  std::vector<std::vector<nn::Tensor>> results(4);
  {
    std::vector<std::thread> callers;
    callers.reserve(4);
    for (int t = 0; t < 4; ++t) {
      callers.emplace_back(
          [&, t]() { results[t] = service.EncodeAll(ptrs); });
    }
    for (auto& caller : callers) caller.join();
  }
  nn::NoGradGuard no_grad;
  for (size_t i = 0; i < plans.size(); ++i) {
    const nn::Tensor reference = encoder.Encode(*plans[i], nullptr);
    for (int t = 0; t < 4; ++t) {
      for (int c = 0; c < reference.cols(); ++c) {
        EXPECT_EQ(results[t][i].at(0, c), reference.at(0, c))
            << "caller " << t << " plan " << i;
      }
    }
  }
  const auto stats = service.GetStats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.plans, 4u * plans.size());
}

}  // namespace
}  // namespace qpe
