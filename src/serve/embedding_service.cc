#include "serve/embedding_service.h"

#include <chrono>
#include <unordered_map>
#include <utility>

#include "nn/arena.h"
#include "nn/simd.h"
#include "plan/fingerprint.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace qpe::serve {

EmbeddingService::EmbeddingService(const encoder::PlanSequenceEncoder* encoder,
                                   const EmbeddingServiceConfig& config)
    : encoder_(encoder),
      config_(config),
      cache_enabled_(config.cache.capacity > 0),
      cache_(config.cache) {}

std::vector<nn::Tensor> EmbeddingService::EncodeAll(
    std::span<const plan::PlanNode* const> plans) {
  const auto start = std::chrono::steady_clock::now();
  const int n = static_cast<int>(plans.size());
  const int dim = encoder_->output_dim();
  std::vector<nn::Tensor> results(n);

  // Step 1+2: fingerprint, probe the cache, and deduplicate repeats. A
  // fingerprint seen earlier in this request is encoded once; later
  // occurrences share the first occurrence's result.
  std::vector<uint64_t> keys(n);
  std::vector<const plan::PlanNode*> to_encode;   // unique misses
  std::vector<std::vector<int>> slots;            // request indices per miss
  std::unordered_map<uint64_t, int> miss_index;   // key -> to_encode index
  for (int i = 0; i < n; ++i) {
    keys[i] = plan::FingerprintPlan(*plans[i]);
    if (cache_enabled_) {
      std::vector<float> cached;
      if (cache_.Lookup(keys[i], &cached)) {
        results[i] = nn::Tensor::FromVector(1, dim, cached);
        continue;
      }
    }
    auto [it, inserted] =
        miss_index.try_emplace(keys[i], static_cast<int>(to_encode.size()));
    if (inserted) {
      to_encode.push_back(plans[i]);
      slots.emplace_back();
    }
    slots[it->second].push_back(i);
  }

  // Step 3: encode unique misses in micro-batches of batch_size plans,
  // data-parallel across the thread pool. Each chunk writes only its own
  // disjoint slice of `encoded` (the pool's determinism contract).
  const int misses = static_cast<int>(to_encode.size());
  std::vector<nn::Tensor> encoded(misses);
  if (misses > 0) {
    const int batch = std::max(config_.batch_size, 1);
    const int chunks = (misses + batch - 1) / batch;
    util::ParallelRun(chunks, [&](int c) {
      // Per-chunk graph epoch: intermediates recycle; the returned
      // embeddings escape the epoch and are released to the heap.
      nn::ArenaScope arena;
      nn::NoGradGuard no_grad;
      const int begin = c * batch;
      const int count = std::min(batch, misses - begin);
      std::vector<nn::Tensor> out = encoder_->EncodeBatch(
          std::span<const plan::PlanNode* const>(to_encode.data() + begin,
                                                 count),
          /*dropout_rng=*/nullptr);
      for (int j = 0; j < count; ++j) encoded[begin + j] = std::move(out[j]);
    });
  }

  // Step 4: publish to the cache sequentially in request order — the LRU
  // state after a request stream is then independent of thread count —
  // and fan results out to every occurrence.
  for (int m = 0; m < misses; ++m) {
    if (cache_enabled_) {
      cache_.Insert(keys[slots[m][0]], encoded[m].value());
    }
    for (const int i : slots[m]) results[i] = encoded[m];
  }

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    requests_ += 1;
    plans_ += static_cast<uint64_t>(n);
    encoded_plans_ += static_cast<uint64_t>(misses);
    total_seconds_ += seconds;
    if (request_latencies_ms_.size() < kLatencyWindow) {
      request_latencies_ms_.push_back(seconds * 1e3);
    } else {
      request_latencies_ms_[(requests_ - 1) % kLatencyWindow] = seconds * 1e3;
    }
  }
  return results;
}

nn::Tensor EmbeddingService::EncodeOne(const plan::PlanNode& plan) {
  const plan::PlanNode* ptr = &plan;
  return EncodeAll(std::span<const plan::PlanNode* const>(&ptr, 1))[0];
}

void EmbeddingService::SwapEncoder(const encoder::PlanSequenceEncoder* encoder) {
  encoder_ = encoder;
  if (cache_enabled_) cache_.Clear();
}

ServiceStats EmbeddingService::GetStats() const {
  ServiceStats stats;
  std::vector<double> latencies_ms;
  {
    // Copy only: the sorts run outside the lock every EncodeAll takes.
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats.requests = requests_;
    stats.plans = plans_;
    stats.encoded_plans = encoded_plans_;
    stats.total_seconds = total_seconds_;
    if (total_seconds_ > 0) {
      stats.plans_per_second = static_cast<double>(plans_) / total_seconds_;
    }
    latencies_ms = request_latencies_ms_;
  }
  stats.latency_samples = latencies_ms.size();
  if (!latencies_ms.empty()) {
    stats.p50_ms = util::Percentile(latencies_ms, 50.0);
    stats.p99_ms = util::Percentile(std::move(latencies_ms), 99.0);
  }
  if (cache_enabled_) stats.cache = cache_.GetStats();
  stats.packed_growth_events = nn::PackedBatch::TotalGrowthEvents();
  stats.simd_level = nn::simd::LevelName(nn::simd::ActiveLevel());
  return stats;
}

}  // namespace qpe::serve
