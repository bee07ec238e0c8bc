#ifndef QPE_NN_ARENA_H_
#define QPE_NN_ARENA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/tensor.h"

namespace qpe::nn {

// Allocation telemetry snapshot. Counters aggregate value-buffer traffic
// through TensorArena; GlobalMemoryStats() sums them over every arena the
// process has created (including arenas of exited threads).
struct MemoryStats {
  uint64_t bytes_requested = 0;   // value-buffer bytes requested via arenas
  uint64_t arena_hits = 0;        // buffers served from a recycled pool
  uint64_t arena_misses = 0;      // buffers that needed a fresh allocation
  uint64_t recycled_buffers = 0;  // graph nodes returned to a pool by EndEpoch
  uint64_t released_buffers = 0;  // nodes that escaped their epoch (heap-owned)
  uint64_t epochs = 0;            // EndEpoch calls
  uint64_t peak_arena_bytes = 0;  // high-water bytes held by pools + live nodes
};

// Sum of every arena's counters, process-wide.
MemoryStats GlobalMemoryStats();

// Peak resident set size of the process in bytes (VmHWM from
// /proc/self/status); 0 where unsupported.
uint64_t PeakRssBytes();

// Per-thread, size-bucketed recycler for autograd node storage
// (Tensor::Impl plus its value/grad vectors), with a graph-epoch lifecycle:
//
//   1. While an ArenaScope is active on a thread, every op result and every
//      requires_grad=false factory tensor built on that thread draws its
//      Impl from the thread's arena instead of the heap. Parameters and any
//      tensor created with requires_grad=true never live in an arena.
//   2. When the scope ends (one training shard, one eval item, one serving
//      micro-batch — one "graph epoch"), EndEpoch() walks the epoch's nodes
//      newest-first. Dead nodes are reset and parked in a power-of-two size
//      bucket; the next epoch's Acquire() calls pop them back out, so
//      steady-state training performs zero allocations for graph storage.
//   3. A node still referenced outside the arena (an embedding handed to a
//      caller, a detached value stored somewhere) is *released*: the arena
//      drops its ownership and the node becomes a plain heap object that
//      frees whenever its last reference dies. Escape is therefore always
//      safe — recycling only ever touches nodes nobody else can see.
//
// Determinism: a recycled buffer is handed back either zero-filled or
// sized-but-stale for ops that overwrite every element (Tensor::Fill
// selects which), so arithmetic is bit-identical with the arena on or off.
//
// The newest-first sweep exploits the invariant that an op acquires its
// result after its operands, so a dead graph unravels in one pass: clearing
// a child's parent edges drops the last references to its parents before
// the sweep reaches them. An ordering violation only costs recycling (the
// parent is released to the heap instead), never correctness.
//
// Sanitizer builds (QPE_SANITIZE_BUILD, set by -DQPE_SANITIZE=...) disable
// recycling: every Acquire allocates fresh and EndEpoch really frees, so
// ASan/LSan track each buffer's true lifetime and a would-be
// use-after-recycle surfaces as a hard use-after-free.
//
// An arena is single-threaded (thread_local); only the counters are safe
// to read from other threads (GlobalMemoryStats).
class TensorArena {
 public:
  TensorArena();
  ~TensorArena();
  TensorArena(const TensorArena&) = delete;
  TensorArena& operator=(const TensorArena&) = delete;

  // An Impl with `value` sized rows*cols, registered with this epoch.
  // zero_fill=true zeroes the buffer; zero_fill=false only sizes it (stale
  // contents — the caller must overwrite every element).
  std::shared_ptr<Tensor::Impl> Acquire(int rows, int cols, bool zero_fill);

  // Recycles or releases every node acquired since the previous epoch.
  void EndEpoch();

  MemoryStats stats() const;

  // The arena installed on the calling thread (nullptr outside any
  // ArenaScope). Ops consult this through Tensor's factories.
  static TensorArena* Current();

  // The calling thread's lazily-created arena (one per thread, lives until
  // thread exit).
  static TensorArena* ThreadLocal();

  // Process-wide switch, on by default. When disabled, ArenaScope installs
  // nothing and every tensor takes the plain heap path — the test hook for
  // the arena-on ≡ arena-off bit-exactness tests.
  static void SetEnabled(bool enabled);
  static bool Enabled();

  // False in sanitizer builds, where EndEpoch frees instead of recycling.
  static bool RecyclingEnabled();

 private:
  friend class ArenaScope;

  static constexpr int kNumBuckets = 31;  // buffers up to 2^30 floats

  std::vector<std::shared_ptr<Tensor::Impl>> pools_[kNumBuckets];
  std::vector<std::shared_ptr<Tensor::Impl>> live_;  // this epoch, in order

  // Relaxed atomics: mutated only by the owning thread, read by anyone via
  // GlobalMemoryStats().
  std::atomic<uint64_t> bytes_requested_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> recycled_{0};
  std::atomic<uint64_t> released_{0};
  std::atomic<uint64_t> epochs_{0};
  std::atomic<uint64_t> cur_bytes_{0};
  std::atomic<uint64_t> peak_bytes_{0};
};

// RAII graph-epoch boundary. The default constructor installs the calling
// thread's arena as Current() for the scope and runs EndEpoch() on exit;
// nested scopes are no-ops (the outermost scope owns the epoch), so library
// code can declare one defensively without fragmenting a caller's epoch.
// The explicit-arena form always installs (for tests).
class ArenaScope {
 public:
  ArenaScope();
  explicit ArenaScope(TensorArena* arena);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  TensorArena* arena_;      // nullptr when this scope installed nothing
  TensorArena* previous_;
};

}  // namespace qpe::nn

#endif  // QPE_NN_ARENA_H_
