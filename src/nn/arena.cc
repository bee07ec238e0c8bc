#include "nn/arena.h"

#include <cstdio>
#include <cstring>
#include <mutex>

namespace qpe::nn {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

// Registry of live arenas plus the accumulated counters of destroyed ones
// (thread_local arenas die with their thread; their traffic must still show
// up in GlobalMemoryStats). The registry is never destroyed: global
// thread-pool workers can still be exiting during static destruction, and
// their thread_local arenas deregister here.
std::mutex g_registry_mu;
std::vector<const TensorArena*>& Registry() {
  static auto* registry = new std::vector<const TensorArena*>;
  return *registry;
}
MemoryStats& RetiredStats() {
  static MemoryStats retired;
  return retired;
}

void Accumulate(MemoryStats* total, const MemoryStats& s) {
  total->bytes_requested += s.bytes_requested;
  total->arena_hits += s.arena_hits;
  total->arena_misses += s.arena_misses;
  total->recycled_buffers += s.recycled_buffers;
  total->released_buffers += s.released_buffers;
  total->epochs += s.epochs;
  total->peak_arena_bytes += s.peak_arena_bytes;
}

thread_local TensorArena* tl_current_arena = nullptr;

std::atomic<bool> g_enabled{true};

// Smallest bucket such that n floats fit in 2^bucket.
int BucketFor(size_t n) {
  int bucket = 0;
  while ((size_t{1} << bucket) < n) ++bucket;
  return bucket;
}

}  // namespace

TensorArena::TensorArena() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  Registry().push_back(this);
}

TensorArena::~TensorArena() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  Accumulate(&RetiredStats(), stats());
  auto& registry = Registry();
  for (size_t i = 0; i < registry.size(); ++i) {
    if (registry[i] == this) {
      registry.erase(registry.begin() + i);
      break;
    }
  }
}

std::shared_ptr<Tensor::Impl> TensorArena::Acquire(int rows, int cols,
                                                   bool zero_fill) {
  const size_t n = static_cast<size_t>(rows) * static_cast<size_t>(cols);
  const int bucket = BucketFor(n);
  bytes_requested_.fetch_add(n * sizeof(float), kRelaxed);

  std::shared_ptr<Tensor::Impl> impl;
#if !defined(QPE_SANITIZE_BUILD)
  auto& pool = pools_[bucket];
  if (!pool.empty()) {
    impl = std::move(pool.back());
    pool.pop_back();
    hits_.fetch_add(1, kRelaxed);
  }
#endif
  if (!impl) {
    impl = std::make_shared<Tensor::Impl>();
    impl->arena_bucket = bucket;
    // Reserve the whole bucket so any later tenant of this node resizes
    // within capacity — steady state never reallocates.
    impl->value.reserve(size_t{1} << bucket);
    misses_.fetch_add(1, kRelaxed);
    const uint64_t cur = cur_bytes_.fetch_add((uint64_t{1} << bucket) *
                                                  sizeof(float),
                                              kRelaxed) +
                         (uint64_t{1} << bucket) * sizeof(float);
    uint64_t peak = peak_bytes_.load(kRelaxed);
    while (cur > peak && !peak_bytes_.compare_exchange_weak(peak, cur, kRelaxed)) {
    }
  }

  impl->rows = rows;
  impl->cols = cols;
  impl->requires_grad = false;
  if (zero_fill) {
    impl->value.assign(n, 0.0f);
  } else {
    impl->value.resize(n);  // stale contents: caller overwrites every element
  }
  live_.push_back(impl);
  return impl;
}

void TensorArena::EndEpoch() {
  epochs_.fetch_add(1, kRelaxed);
  uint64_t recycled = 0, released = 0, freed_bytes = 0;
  // Newest-first: children were acquired after their parents, so resetting
  // a dead node's parent edges drops the last references to its parents
  // before the sweep reaches them — one pass unravels the whole graph.
  for (size_t idx = live_.size(); idx-- > 0;) {
    std::shared_ptr<Tensor::Impl>& slot = live_[idx];
    const uint64_t bucket_bytes =
        (uint64_t{1} << slot->arena_bucket) * sizeof(float);
#if !defined(QPE_SANITIZE_BUILD)
    if (slot.use_count() == 1) {  // dead: only the arena sees it
      Tensor::Impl* impl = slot.get();
      impl->parents.clear();      // keeps capacity; drops parent references
      impl->backward_fn.Reset();  // destroys the closure (and its captures)
      impl->visited = false;
      impl->requires_grad = false;
      impl->grad.clear();  // keeps capacity; EnsureGrad re-zeroes on reuse
      pools_[impl->arena_bucket].push_back(std::move(slot));
      ++recycled;
      continue;
    }
#endif
    // Escaped (or sanitizer build): hand ownership to the remaining
    // holders — the node becomes an ordinary heap object.
    slot.reset();
    ++released;
    freed_bytes += bucket_bytes;
  }
  live_.clear();
  recycled_.fetch_add(recycled, kRelaxed);
  released_.fetch_add(released, kRelaxed);
  cur_bytes_.fetch_sub(freed_bytes, kRelaxed);
}

MemoryStats TensorArena::stats() const {
  MemoryStats s;
  s.bytes_requested = bytes_requested_.load(kRelaxed);
  s.arena_hits = hits_.load(kRelaxed);
  s.arena_misses = misses_.load(kRelaxed);
  s.recycled_buffers = recycled_.load(kRelaxed);
  s.released_buffers = released_.load(kRelaxed);
  s.epochs = epochs_.load(kRelaxed);
  s.peak_arena_bytes = peak_bytes_.load(kRelaxed);
  return s;
}

TensorArena* TensorArena::Current() { return tl_current_arena; }

TensorArena* TensorArena::ThreadLocal() {
  thread_local TensorArena arena;
  return &arena;
}

void TensorArena::SetEnabled(bool enabled) {
  g_enabled.store(enabled, kRelaxed);
}

bool TensorArena::Enabled() { return g_enabled.load(kRelaxed); }

bool TensorArena::RecyclingEnabled() {
#if defined(QPE_SANITIZE_BUILD)
  return false;
#else
  return true;
#endif
}

ArenaScope::ArenaScope() : arena_(nullptr), previous_(tl_current_arena) {
  // Nested scopes are no-ops: the outermost scope owns the graph epoch, so
  // an inner library scope never recycles (or releases) its caller's
  // still-building graph mid-flight.
  if (previous_ == nullptr && TensorArena::Enabled()) {
    arena_ = TensorArena::ThreadLocal();
    tl_current_arena = arena_;
  }
}

ArenaScope::ArenaScope(TensorArena* arena)
    : arena_(arena), previous_(tl_current_arena) {
  tl_current_arena = arena_;
}

ArenaScope::~ArenaScope() {
  if (arena_ != nullptr) arena_->EndEpoch();
  tl_current_arena = previous_;
}

MemoryStats GlobalMemoryStats() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  MemoryStats total = RetiredStats();
  for (const TensorArena* arena : Registry()) {
    Accumulate(&total, arena->stats());
  }
  return total;
}

uint64_t PeakRssBytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%lu", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
#else
  return 0;
#endif
}

}  // namespace qpe::nn
