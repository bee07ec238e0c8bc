#ifndef QPE_SERVE_EMBEDDING_SERVICE_H_
#define QPE_SERVE_EMBEDDING_SERVICE_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "encoder/structure_encoder.h"
#include "nn/tensor.h"
#include "plan/plan_node.h"
#include "serve/embedding_cache.h"

namespace qpe::serve {

struct EmbeddingServiceConfig {
  // Micro-batch size: a request's cache misses are encoded in chunks of
  // this many plans, each chunk one EncodeBatch call; chunks run
  // data-parallel on the global util::ThreadPool.
  int batch_size = 16;
  // Embedding cache; capacity 0 disables caching entirely (every plan is
  // encoded, nothing is stored — the benchmark baseline).
  EmbeddingCacheConfig cache;
};

// Serving statistics. Latency percentiles are over the most recent
// EncodeAll requests (at most EmbeddingService::kLatencyWindow of them);
// throughput is total plans over total request wall time.
struct ServiceStats {
  uint64_t requests = 0;
  uint64_t plans = 0;
  uint64_t encoded_plans = 0;  // plans that actually ran the encoder
  double total_seconds = 0;
  double plans_per_second = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t latency_samples = 0;  // request latencies behind p50/p99
  EmbeddingCache::Stats cache;
  // Process-wide count of packed-workspace reallocation events
  // (nn::PackedBatch::TotalGrowthEvents). Flat once serving reaches steady
  // state — growth after warmup means the workspace high-water mark moved.
  uint64_t packed_growth_events = 0;
  // Active SIMD kernel level ("scalar", "avx2", "neon"), from nn/simd.h.
  const char* simd_level = "scalar";
};

// High-throughput embedding-serving facade over a PlanSequenceEncoder: the
// layer every caller that wants plan embeddings at volume (ingestion, eval
// loops, downstream featurizers) routes through.
//
// A request (EncodeAll) is served in four steps:
//   1. fingerprint every plan (plan::FingerprintPlan, a pure function of
//      the encoder's input tokens);
//   2. look each fingerprint up in the sharded LRU cache, deduplicating
//      repeats within the request;
//   3. micro-batch the unique misses into EncodeBatch calls of
//      `batch_size` plans, run data-parallel across the thread pool under
//      NoGradGuard;
//   4. insert the fresh embeddings sequentially in request order (so the
//      cache's LRU state is deterministic for a given request stream) and
//      assemble results.
//
// Embeddings returned for hits are bit-identical to a fresh Encode: the
// cache stores the raw float rows the batched forward produced, and the
// batched forward is bit-identical to the single-plan path by the nn/
// determinism contract. The service is safe to call from multiple threads
// concurrently (the cache is sharded-locked; stats are mutex-protected).
class EmbeddingService {
 public:
  // Request latencies retained for the percentiles: a ring of the most
  // recent requests, so a long-running daemon's stats stay constant-size.
  static constexpr size_t kLatencyWindow = 4096;

  // `encoder` must outlive the service. Encoding runs with no dropout and
  // no autograd, regardless of the encoder's training flag.
  EmbeddingService(const encoder::PlanSequenceEncoder* encoder,
                   const EmbeddingServiceConfig& config = {});

  // Embeddings for all plans, in request order; result i is [1, output_dim].
  std::vector<nn::Tensor> EncodeAll(
      std::span<const plan::PlanNode* const> plans);

  nn::Tensor EncodeOne(const plan::PlanNode& plan);

  // Swaps the serving encoder and clears the cache in one step, so no
  // cached embedding from the old model can ever be returned as if the new
  // one produced it. NOT internally synchronized against EncodeAll/
  // EncodeOne: the caller must exclude concurrent encodes for the duration
  // of the call (the daemon holds its model lock exclusively here).
  void SwapEncoder(const encoder::PlanSequenceEncoder* encoder);

  ServiceStats GetStats() const;

  EmbeddingCache* cache() { return cache_enabled_ ? &cache_ : nullptr; }

 private:
  const encoder::PlanSequenceEncoder* encoder_;
  EmbeddingServiceConfig config_;
  bool cache_enabled_;
  EmbeddingCache cache_;

  mutable std::mutex stats_mu_;
  uint64_t requests_ = 0;
  uint64_t plans_ = 0;
  uint64_t encoded_plans_ = 0;
  double total_seconds_ = 0;
  std::vector<double> request_latencies_ms_;  // ring, <= kLatencyWindow
};

}  // namespace qpe::serve

#endif  // QPE_SERVE_EMBEDDING_SERVICE_H_
