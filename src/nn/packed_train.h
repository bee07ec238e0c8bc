#ifndef QPE_NN_PACKED_TRAIN_H_
#define QPE_NN_PACKED_TRAIN_H_

#include <cstdint>
#include <vector>

#include "nn/tensor.h"
#include "util/rng.h"

namespace qpe::nn {

// Gradient-capable sibling of the packed inference engine
// (nn/packed_forward.h): one columnar transformer forward that retains
// every activation the backward needs, plus a hand-scheduled columnar
// backward that replays the autograd op chain's gradient arithmetic
// through the dispatched simd::Kernels backward table.
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

// Raw view of one trainable parameter: the value pointer for the forward
// and the autograd node for gradient routing. Gradients are always
// resolved through GradPtr(impl) at backward time, so data-parallel
// shards under a GradientCapture accumulate into their private buffers
// exactly like the op-chain closures do.
struct PackedTrainParam {
  const float* v = nullptr;
  Tensor::Impl* impl = nullptr;
};

struct PackedTrainSite {
  PackedTrainParam weight;  // [in, out] row-major
  PackedTrainParam bias;    // [1, out]
};

struct PackedTrainLayerParams {
  PackedTrainParam norm1_gamma, norm1_beta, norm2_gamma, norm2_beta;
};

// Model view the encoder refreshes per call (checkpoint loads replace the
// parameter value buffers, never the autograd nodes).
struct PackedTrainView {
  int model_dim = 0;
  int ff_dim = 0;
  int num_heads = 0;
  int num_layers = 0;
  int level1_dim = 0;
  int level2_dim = 0;
  int level3_dim = 0;
  int output_dim = 0;  // == model_dim when has_projection is false
  bool has_projection = false;
  float dropout = 0.0f;
  PackedTrainParam embed1, embed2, embed3, positional;
  std::vector<PackedTrainLayerParams> layers;
  std::vector<PackedTrainSite> sites;  // layer-major wq,wk,wv,wo,ff1,ff2;
                                       // projection last when present
};

// Per-layer retained activations, all row-major over the packed rows.
struct PackedTrainLayerActs {
  std::vector<float> x;    // [rows, d] layer input
  std::vector<float> n1;   // [rows, d] norm1 output
  std::vector<float> q, k, v;  // [rows, d] attention projections
  std::vector<float> att;  // [rows, d] attention context
  std::vector<float> hm;   // [rows, d] post-attention residual
  std::vector<float> n2;   // [rows, d] norm2 output
  std::vector<float> ffa;  // [rows, f] ff1 ReLU output
  std::vector<float> mask_att, mask_ff;  // [rows, d] dropout multipliers
};

// Reusable training workspace: packing columns, retained activations and
// backward scratch, all growing to the high-water shape and persisting.
// One instance per thread via ThreadLocal(); the generation counter lets a
// deferred backward closure detect (and abort on) a workspace that a newer
// forward has overwritten — the shard-per-pair training loop runs exactly
// one forward per Backward(), so this never fires in practice.
class PackedTrainBatch {
 public:
  // --- packing columns (copied from the assembled nn::PackedBatch) ---
  std::vector<int> ids1, ids2, ids3;  // [rows]
  std::vector<int> positions;         // [rows]
  std::vector<int> offsets, lengths;  // [num_seqs]
  int rows = 0;
  int num_seqs = 0;

  PackedTrainView view;
  uint64_t generation = 0;
  bool used_dropout = false;

  // --- forward activations ---
  std::vector<PackedTrainLayerActs> layers;
  std::vector<float> hout;     // [rows, d] final hidden state
  std::vector<float> cls;      // [num_seqs, d] pooled CLS rows
  std::vector<float> proj;     // [num_seqs, output_dim]
  std::vector<float> scratch;  // [rows, d] pre-residual linear outputs

  // --- backward scratch ---
  std::vector<float> d_h, d_tmp, d_att, d_q, d_k, d_v, d_n1, d_n2;  // [rows,d]
  std::vector<float> d_act, d_pre;  // [rows, f]
  std::vector<float> d_cls;         // [num_seqs, d]

  static PackedTrainBatch& ThreadLocal();
};

// QPE_PACKED_TRAIN=0 falls back to the per-plan op-chain training path
// (the bitwise reference); defaults on.
bool PackedTrainEnvEnabled();

// Runs the recording columnar forward over the packed workspace (columns
// and view already filled). A non-null `rng` enables dropout with the
// view's rate; masks are drawn in caller plan order (sequence S-1-ci for
// ci ascending), layer by layer, attention mask before feed-forward mask —
// the exact stream order of the per-plan Dropout ops. Bumps the
// workspace generation and returns the [num_seqs, output_dim] result
// (the projection output, or the pooled CLS rows when the model has no
// projection).
const float* PackedTrainForward(PackedTrainBatch& ws, util::Rng* rng);

// Columnar backward: consumes the retained activations and accumulates
// parameter gradients (through GradPtr) for the upstream gradient
// `out_grad` [num_seqs, output_dim]. `generation` must match the forward
// that produced the activations; a mismatch aborts.
void PackedTrainBackward(PackedTrainBatch& ws, const float* out_grad,
                         uint64_t generation);

}  // namespace qpe::nn

#endif  // QPE_NN_PACKED_TRAIN_H_
