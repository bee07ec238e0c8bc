#ifndef QPE_NN_PACKED_TRAIN_H_
#define QPE_NN_PACKED_TRAIN_H_

#include <cstdint>
#include <vector>

#include "nn/packed_batch.h"
#include "nn/packed_forward.h"
#include "util/rng.h"

namespace qpe::nn {

// The packed training step: the recording forward is PackedEncodeForward
// with a tape (nn/packed_forward.h); this file holds its workspace, the
// dropout-mask draw, and a hand-scheduled columnar backward that replays
// the autograd op chain's gradient arithmetic through the dispatched
// simd::Kernels backward table.
//
// Bit-exactness contract: for a batch packed in REVERSE caller order (the
// autograd engine executes later-built sibling subtrees first, so caller
// plan ci is packed sequence S-1-ci), the forward activations and every
// gradient accumulated into the parameters are bit-identical — at every
// SIMD dispatch level — to running the per-plan op-chain forward/backward
// once per plan. The forward shares the inference kernels the op chain
// already dispatches to; the backward calls the same backward kernels in
// the op chain's reverse-topological order, and every per-memory-location
// accumulation sequence matches the per-plan order because the kernels
// accumulate rows in ascending packed order (= per-plan order under the
// reversed packing). Dropout masks are pre-drawn in caller plan order so
// the RNG consumption matches the per-plan path stream for stream.
//
// The last layer is CLS-trimmed on both sides. Only its CLS rows reach
// the output, so the op chain's gradient of every other row's output is
// exactly zero, and every term that row would add — to a weight, bias or
// norm gradient, to dK/dV through its query, to the layer input — is ±0.
// The trimmed forward keeps that layer's q, att, hm, n2, ffa and dropout
// masks for the CLS rows only (see PackedLayerTape), and the backward runs
// its FFN, LN2, wo and wq at m = num_seqs and its attention through
// attention_backward_cls; wk, wv and LN1 still cover every row. Adding ±0
// to a gradient buffer never changes its bits (a buffer that starts at +0
// and only accumulates is never -0), so skipping those terms keeps the
// contract above; the one ordering it must keep is wq's input gradient
// landing on n1's CLS rows after wv's and wk's.

// Reusable training workspace, one instance per thread via ThreadLocal().
// Every buffer grows to the high-water shape and persists.
class PackedTrainBatch {
 public:
  // Packing columns, model view, and forward scratch of the recording
  // forward. Deliberately its own workspace, not PackedBatch::ThreadLocal():
  // an inference batch encoded on this thread between the forward and
  // Backward() leaves everything the backward reads untouched.
  PackedBatch batch;
  PackedTape tape;

  // Bumped by every recording forward (BeginForward). Only the recording
  // forward writes `batch` and `tape`, so a backward presenting a stale
  // generation — a second recording forward on this thread ran before it —
  // is exactly the case where its inputs were overwritten; it aborts.
  uint64_t generation = 0;

  // --- backward scratch ---
  std::vector<float> d_h, d_tmp, d_att, d_q, d_k, d_v, d_n1, d_n2;  // [rows,d]
  std::vector<float> d_act, d_pre;  // [rows, f]
  std::vector<float> d_cls;         // [num_seqs, d] gradient of batch.cls
  std::vector<float> d_probs;  // attention backward scratch (nn/simd.h)
  std::vector<float> d_wt;     // [out, in] weight transposed for dx

  // Starts a recording forward over the packed, bound batch: bumps the
  // generation and, when `rng` is non-null and `dropout` > 0, draws every
  // layer's masks into the tape — in caller plan order (sequence S-1-ci for
  // ci ascending), layer by layer, attention mask before feed-forward
  // mask, the exact stream order of the per-plan Dropout ops. Every row's
  // masks are drawn; the last layer keeps its CLS rows' only. Returns the
  // generation the backward must present.
  uint64_t BeginForward(float dropout, util::Rng* rng);

  static PackedTrainBatch& ThreadLocal();
};

// Columnar backward: consumes the tape of the recording forward and
// accumulates parameter gradients (through GradPtr, so a GradientCapture
// alive on this thread redirects them into its shard buffers) for the
// upstream gradient `out_grad` [num_seqs, output_dim]. Weights and gradient
// nodes come from `refs`, dimensions and layout from ws.batch. `generation`
// must match the forward that filled the workspace; a mismatch aborts.
void PackedTrainBackward(PackedTrainBatch& ws, const PackedRefs& refs,
                         const float* out_grad, uint64_t generation);

}  // namespace qpe::nn

#endif  // QPE_NN_PACKED_TRAIN_H_
