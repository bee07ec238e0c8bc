#ifndef QPE_NN_TENSOR_H_
#define QPE_NN_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace qpe::nn {

// Inline-storage callable for autograd backward functions. Training builds
// (and tears down) one closure per graph node per step; std::function would
// heap-allocate every one of them because the captures exceed its small-
// buffer size. This stores the closure in-place (capacity checked at
// compile time), so node recycling through TensorArena makes the backward
// bookkeeping allocation-free. Not copyable or movable: it lives inside
// Tensor::Impl, which never relocates.
class BackwardFn {
 public:
  BackwardFn() = default;
  ~BackwardFn() { Reset(); }
  BackwardFn(const BackwardFn&) = delete;
  BackwardFn& operator=(const BackwardFn&) = delete;

  template <typename F>
  BackwardFn& operator=(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(!std::is_same_v<Fn, BackwardFn>);
    static_assert(sizeof(Fn) <= kCapacity,
                  "backward closure exceeds BackwardFn inline storage; "
                  "shrink the capture list or raise kCapacity");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    Reset();
    new (storage_) Fn(std::forward<F>(fn));
    invoke_ = [](void* s) { (*static_cast<Fn*>(s))(); };
    destroy_ = [](void* s) { static_cast<Fn*>(s)->~Fn(); };
    return *this;
  }

  void operator()() { invoke_(storage_); }
  explicit operator bool() const { return invoke_ != nullptr; }

  void Reset() {
    if (destroy_ != nullptr) destroy_(storage_);
    invoke_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  static constexpr size_t kCapacity = 128;

  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kCapacity];
};

// A 2-D float tensor with reverse-mode automatic differentiation. This is
// the computational substrate for every model in the library (the paper
// trains with a deep-learning framework on GPU; we implement the same
// mathematics from scratch for CPU).
//
// Tensor is a cheap shared handle: copies alias the same storage and the
// same autograd node. Each forward pass builds a fresh dynamic graph;
// calling Backward() on a scalar result accumulates gradients into every
// reachable tensor that requires_grad (notably model parameters, whose
// gradients persist until the optimizer clears them).
//
// Shapes are [rows, cols]; scalars are [1, 1]. Broadcasting in binary ops
// supports a [1, n] row vector, an [m, 1] column vector, or a [1, 1] scalar
// against an [m, n] tensor.
class Tensor {
 public:
  Tensor() = default;

  // --- Construction ---
  static Tensor Zeros(int rows, int cols, bool requires_grad = false);
  static Tensor Full(int rows, int cols, float value,
                     bool requires_grad = false);
  static Tensor FromVector(int rows, int cols, const std::vector<float>& data,
                           bool requires_grad = false);
  static Tensor Scalar(float value, bool requires_grad = false);
  // Xavier/Glorot-uniform initialization, for parameter matrices.
  static Tensor Xavier(int rows, int cols, util::Rng* rng);
  // Gaussian init with the given stddev.
  static Tensor Gaussian(int rows, int cols, float stddev, util::Rng* rng);

  bool defined() const { return impl_ != nullptr; }
  int rows() const;
  int cols() const;
  int numel() const { return rows() * cols(); }
  bool requires_grad() const;

  // Raw storage access (row-major). Gradient storage is allocated lazily —
  // a tensor that never participates in a Backward() pass (eval-mode
  // activations, detached copies) never pays for a grad buffer; the
  // accessors allocate a zeroed buffer on first touch.
  std::vector<float>& value();
  const std::vector<float>& value() const;
  std::vector<float>& grad();
  const std::vector<float>& grad() const;
  float at(int r, int c) const;
  void set(int r, int c, float v);

  // --- Autograd ---
  // Backpropagates from this tensor; it must be a scalar ([1,1]).
  void Backward() const;
  void ZeroGrad() const;

  // Detached copy sharing no graph history (same values).
  Tensor Detach() const;

  // --- Ops (each returns a new tensor wired into the graph) ---
  friend Tensor MatMul(const Tensor& a, const Tensor& b);
  friend Tensor Add(const Tensor& a, const Tensor& b);       // broadcasting
  friend Tensor Sub(const Tensor& a, const Tensor& b);       // broadcasting
  friend Tensor Mul(const Tensor& a, const Tensor& b);       // broadcasting
  friend Tensor Scale(const Tensor& a, float s);
  friend Tensor AddScalar(const Tensor& a, float s);
  friend Tensor Relu(const Tensor& a);
  friend Tensor Sigmoid(const Tensor& a);
  friend Tensor Tanh(const Tensor& a);
  friend Tensor Exp(const Tensor& a);
  friend Tensor Log(const Tensor& a);    // clamped at 1e-12
  friend Tensor Sqrt(const Tensor& a);   // clamped at 0
  friend Tensor Square(const Tensor& a);
  friend Tensor Abs(const Tensor& a);
  friend Tensor Transpose(const Tensor& a);
  friend Tensor Sum(const Tensor& a);                   // -> [1,1]
  friend Tensor Mean(const Tensor& a);                  // -> [1,1]
  friend Tensor RowSum(const Tensor& a);                // -> [m,1]
  friend Tensor RowMean(const Tensor& a);               // -> [m,1]
  friend Tensor SoftmaxRows(const Tensor& a);           // rowwise softmax
  // --- Fused serving kernels (see "Fused kernels" below) ---
  friend Tensor LinearRowBias(const Tensor& x, const Tensor& w,
                              const Tensor& bias);
  friend Tensor LinearRowBiasRelu(const Tensor& x, const Tensor& w,
                                  const Tensor& bias);
  friend Tensor LayerNormRows(const Tensor& x, const Tensor& gamma,
                              const Tensor& beta);
  friend Tensor MultiHeadAttentionPacked(const Tensor& q, const Tensor& k,
                                         const Tensor& v,
                                         const std::vector<int>& offsets,
                                         const std::vector<int>& lengths,
                                         int num_heads, float scale);
  friend Tensor ConcatCols(const std::vector<Tensor>& parts);
  friend Tensor ConcatRows(const std::vector<Tensor>& parts);
  friend Tensor SliceCols(const Tensor& a, int start, int len);
  friend Tensor SliceRows(const Tensor& a, int start, int len);
  // Row gather: out[i] = a[indices[i]]; backward scatters. This is the
  // embedding lookup primitive.
  friend Tensor GatherRows(const Tensor& a, const std::vector<int>& indices);
  // Dropout: zeroes entries with probability p and rescales by 1/(1-p).
  friend Tensor Dropout(const Tensor& a, float p, util::Rng* rng);
  // Negative log-likelihood of target classes under rowwise log-softmax of
  // logits; returns the mean over rows ([1,1]).
  friend Tensor CrossEntropy(const Tensor& logits,
                             const std::vector<int>& targets);

  // Implementation details below — public so the op implementations (some
  // in internal linkage within tensor.cc) can build graph nodes; not part of
  // the stable API.
  struct Impl {
    int rows = 0;
    int cols = 0;
    bool requires_grad = false;
    bool visited = false;   // scratch for topological sort
    int arena_bucket = -1;  // TensorArena pool index; -1 for plain heap impls
    std::vector<float> value;
    std::vector<float> grad;  // lazily sized; see EnsureGrad()
    std::vector<std::shared_ptr<Impl>> parents;
    BackwardFn backward_fn;

    void EnsureGrad() {
      if (grad.size() != value.size()) grad.assign(value.size(), 0.0f);
    }
  };

  // How MakeResult prepares the result buffer. kOverwrite skips the zero
  // fill and hands back sized-but-stale storage when the buffer comes from
  // an arena — only valid for ops whose forward writes EVERY element
  // (accumulating kernels like MatMulReference must use kZero).
  enum class Fill { kZero, kOverwrite };

  explicit Tensor(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}
  static Tensor MakeResult(int rows, int cols,
                           std::initializer_list<std::shared_ptr<Impl>> parents,
                           Fill fill = Fill::kZero);
  static Tensor MakeResult(int rows, int cols,
                           const std::vector<std::shared_ptr<Impl>>& parents,
                           Fill fill = Fill::kZero);
  Impl* impl() const { return impl_.get(); }

  std::shared_ptr<Impl> impl_;
};

// Namespace-scope declarations of the op set (the in-class friend
// declarations alone are only found via ADL, which braced-init-list
// arguments defeat).
//
// MatMul: a [m, k] times b [k, n]. It runs the dispatch table's one
// forward linear (simd linear_bias_act, no bias, no activation), like
// LinearRowBias and LinearRowBiasRelu below, and the same backward
// kernels; every output element is the ascending-k sum MatMulReference
// computes, bit for bit at every SIMD level and thread count (finite b:
// vector levels multiply the a == 0 terms the reference skips, so a
// non-finite weight can give NaN where the reference gives a sum).
Tensor MatMul(const Tensor& a, const Tensor& b);
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Scale(const Tensor& a, float s);
Tensor AddScalar(const Tensor& a, float s);
Tensor Relu(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Square(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Transpose(const Tensor& a);
Tensor Sum(const Tensor& a);
Tensor Mean(const Tensor& a);
Tensor RowSum(const Tensor& a);
Tensor RowMean(const Tensor& a);
Tensor SoftmaxRows(const Tensor& a);
Tensor ConcatCols(const std::vector<Tensor>& parts);
Tensor ConcatRows(const std::vector<Tensor>& parts);
Tensor SliceCols(const Tensor& a, int start, int len);
Tensor SliceRows(const Tensor& a, int start, int len);
Tensor GatherRows(const Tensor& a, const std::vector<int>& indices);
Tensor Dropout(const Tensor& a, float p, util::Rng* rng);
Tensor CrossEntropy(const Tensor& logits, const std::vector<int>& targets);

// --- Fused kernels ----------------------------------------------------------
//
// Single-node forward/backward kernels for the serving hot path. Each one
// replaces a chain of ops (and the graph nodes, allocations and memory
// passes that come with it) by one dispatch-table kernel. Forward results
// are bit-identical to the op chains they replace, so swapping them into a
// model changes no numbers.

// x * w + bias with x [m, k], w [k, n], bias [1, n]: Linear's whole forward
// as one graph node instead of MatMul followed by a broadcasting Add. It is
// MatMul's node with the bias added in the GEMM epilogue, after each
// element's multiply has fully accumulated, so values are bit-identical to
// Add(MatMulReference(x, w), bias) while saving one graph node, one [m, n]
// buffer and one full memory pass per Linear layer.
Tensor LinearRowBias(const Tensor& x, const Tensor& w, const Tensor& bias);

// max(x * w + bias, 0): a whole Linear + ReLU layer as one graph node — the
// same node with the ReLU clamp in the epilogue too, bit-identical to
// Relu(Add(MatMulReference(x, w), bias)). The backward recovers the
// pre-activation gradient by gating on the output (out > 0 iff the
// pre-activation was > 0 — the GEMM accumulator never produces -0) and runs
// the matmul/bias backward kernels on it, so gradients match the
// LinearRowBias + Relu chain bit for bit too. Saves a graph node, an
// [m, n] buffer and two full memory passes per hidden MLP layer; the MLP
// training hot path.
Tensor LinearRowBiasRelu(const Tensor& x, const Tensor& w, const Tensor& bias);

// Row-wise layer normalization: y = (x - mean) / sqrt(var + 1e-5) * gamma
// + beta, one kernel instead of the 8-op autograd chain LayerNorm::Forward
// used to build. Forward arithmetic replicates the original chain exactly
// (including its exp(-log(std)) reciprocal), so existing weights produce
// bit-identical activations.
Tensor LayerNormRows(const Tensor& x, const Tensor& gamma, const Tensor& beta);

// Fused multi-head self-attention over a ragged packed batch. q/k/v are
// [sum(lengths), dim] projections; rows [offsets[s], offsets[s]+lengths[s])
// form sequence s. For every sequence and every head (head h spans columns
// [h*dh, (h+1)*dh), dh = dim/num_heads) the output block equals
//   MatMul(SoftmaxRows(Scale(MatMul(qh, Transpose(kh)), scale)), vh)
// — bit-for-bit at the scalar dispatch level, within the epsilon contract
// under a vector level (polynomial exp lanes; see nn/simd_kernels_inl.h) —
// but runs as one op instead of ~8 per sequence per head: on short plan
// sequences the chain's per-op dispatch/allocation dominates the actual
// arithmetic. Keys never cross sequence boundaries, so packing imposes an
// exact attention mask by construction. The forward repacks K and V into
// head blocks and runs attention_forward_blocked, the packed engine's
// kernel, so per-plan Encode (MultiHeadSelfAttention::Forward routes
// through this op) and the packed batch share one attention forward. The
// backward (attention_backward_packed) reads the interleaved q/k/v.
Tensor MultiHeadAttentionPacked(const Tensor& q, const Tensor& k,
                                const Tensor& v,
                                const std::vector<int>& offsets,
                                const std::vector<int>& lengths,
                                int num_heads, float scale);

// Naive triple-loop matrix multiply (the seed saxpy loop), kept as the
// oracle of the linear ops: it shares no kernel with them. Tests assert
// that MatMul, LinearRowBias and LinearRowBiasRelu forwards match it bit
// for bit and MatMul's backward within tolerance (matmul_backward_a sums
// each dA element in a register before adding it, the reference adds term
// by term), and the micro-benchmarks use it as the baseline. Not for
// production paths.
Tensor MatMulReference(const Tensor& a, const Tensor& b);

// --- Threading / autograd interaction --------------------------------------

// While alive on a thread, ops built on that thread record no graph edges
// and no backward functions (like torch.no_grad()): forward passes over
// trainable parameters become pure computations. Use for evaluation paths;
// nests correctly.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

// True unless a NoGradGuard is alive on this thread. The packed inference
// pipeline keys off this: it is graph-free, so it only engages when the
// caller has already declared (via NoGradGuard) that no gradients are
// wanted from the pass.
bool GradEnabled();

// While alive on a thread, gradient accumulation into the given target
// tensors (typically model parameters, the only tensors shared between
// data-parallel shard graphs) is redirected into the caller-provided
// buffers instead of the tensors' own grad storage. This is what lets
// several worker threads run Backward() concurrently on graphs that share
// parameter leaves: every shared write is redirected to a private buffer,
// and the training loop then reduces the buffers in shard order so the
// result is identical for every thread count.
//
// `buffers` is resized to one zeroed buffer per target (capacity is reused
// across steps). Affects only the constructing thread. An inner capture
// fully replaces an outer one for its lifetime (redirects only its own
// targets); the outer redirect is restored on destruction.
class GradientCapture {
 public:
  GradientCapture(const std::vector<Tensor>& targets,
                  std::vector<std::vector<float>>* buffers);
  ~GradientCapture();
  GradientCapture(const GradientCapture&) = delete;
  GradientCapture& operator=(const GradientCapture&) = delete;

 private:
  std::unordered_map<Tensor::Impl*, float*> map_;
  const std::unordered_map<Tensor::Impl*, float*>* previous_;
};

// Gradient utilities.

// Where a backward function accumulates a tensor's gradient: the impl's
// own (lazily allocated) grad buffer, or the thread's GradientCapture
// shadow buffer when one is redirecting this impl. Every backward that
// writes parameter gradients — the op closures in tensor.cc and the
// packed-batch training backward — must go through this so data-parallel
// shards never write shared memory.
float* GradPtr(Tensor::Impl* p);

// Clips the global L2 norm of the given tensors' gradients to `max_norm`;
// returns the pre-clip norm.
float ClipGradNorm(const std::vector<Tensor>& params, float max_norm);

}  // namespace qpe::nn

#endif  // QPE_NN_TENSOR_H_
