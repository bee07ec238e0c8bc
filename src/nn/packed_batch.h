#ifndef QPE_NN_PACKED_BATCH_H_
#define QPE_NN_PACKED_BATCH_H_

#include <cstdint>
#include <vector>

#include "nn/transformer.h"

namespace qpe::nn {

// Raw-pointer views of one transformer layer's normalization parameters,
// used by the packed inference engine (nn/packed_forward.h). The engine
// never owns weights: the fp32 encoder refreshes these pointers from its
// parameter tensors on every call (checkpoint loads replace the underlying
// buffers), the quantized encoder points them at vectors it owns.
struct PackedLayerView {
  const float* norm1_gamma = nullptr;
  const float* norm1_beta = nullptr;
  const float* norm2_gamma = nullptr;
  const float* norm2_beta = nullptr;
};

// Everything the packed engine needs to know about a model, as plain
// dimensions and borrowed pointers. The GEMM weights are deliberately
// absent — they reach the engine through its `linear` callback, which is
// how the same skeleton serves fp32, calibration-tap, int8 and recording
// training callers.
struct PackedModelView {
  int model_dim = 0;
  int ff_dim = 0;
  int num_heads = 0;
  int num_layers = 0;
  int level1_dim = 0;
  int level2_dim = 0;
  int level3_dim = 0;
  int output_dim = 0;  // == model_dim when has_projection is false
  bool has_projection = false;
  const float* embed1 = nullptr;  // [vocab1, level1_dim]
  const float* embed2 = nullptr;  // [vocab2, level2_dim]
  const float* embed3 = nullptr;  // [vocab3, level3_dim]
  const float* positional = nullptr;  // [max_len, model_dim]
  std::vector<PackedLayerView> layers;
};

// Stable handles to every parameter of one packed transformer, in engine
// order: the one site table that fp32 inference, the calibration tap, int8
// quantization and the training backward all read. A checkpoint load
// replaces a tensor's value buffer but never the tensor, so the handles are
// resolved once; raw pointers are re-read from them per call
// (encoder::BindPackedView).
struct PackedRefs {
  Tensor embed1, embed2, embed3, positional;
  struct Layer {
    Tensor norm1_gamma, norm1_beta, norm2_gamma, norm2_beta;
  };
  std::vector<Layer> layers;
  struct Site {
    Tensor weight;  // [in, out] row-major
    Tensor bias;    // [1, out]
  };
  std::vector<Site> sites;  // layer-major wq, wk, wv, wo, ff1, ff2; then
                            // the output projection when present
};

// Reusable columnar workspace of the packed batch pipeline: the token-id
// and position columns batch assembly fills (struct-of-arrays, one column
// per embedding level), plus every activation matrix the engine writes.
// All buffers grow to the high-water batch shape and then persist, so a
// steady-state micro-batch touches the heap zero times: the packer reuses
// the id columns and layout vectors, the engine reuses the activation
// matrices, and the quantized GEMM reuses the qx scratch.
//
// One instance per thread via ThreadLocal(); nothing here is shared.
class PackedBatch {
 public:
  // --- filled by batch assembly (encoder::PackPlansColumns) ---
  std::vector<int> ids1, ids2, ids3;  // clamped token ids, one per row
  std::vector<int> lengths;           // per-plan token counts
  BatchLayout layout;                 // built in place, capacity reused

  // --- filled by the engine (nn/packed_forward.h) ---
  std::vector<float> h;       // [rows, d] hidden state
  std::vector<float> normed;  // [rows, d] layer-norm / GEMM output scratch
  std::vector<float> q, k, v;  // [rows, d] attention projections
  std::vector<float> kbt;      // [head][head_dim][rows] transposed keys
  std::vector<float> vb;       // [head][rows][head_dim] blocked values
  std::vector<float> ctx;      // [rows, d] attention context
  std::vector<float> ff;       // [rows, ff_dim]
  std::vector<float> cls;      // [num_seqs, d] pooled CLS rows
  std::vector<float> proj;     // [num_seqs, output_dim]
  std::vector<float> probs;    // max_len^2 attention-score scratch

  // --- quantized-linear scratch (QuantizedLinear::Forward) ---
  std::vector<int8_t> qx;

  // Model view the fp32 encoder binds per call (the quantized encoder
  // carries its own stable view instead).
  PackedModelView view;

  // Clears the id columns, lengths, and layout while keeping every
  // buffer's capacity. Call once per micro-batch before packing.
  void BeginBatch();

  // Rebuilds `layout` from `lengths` in place, reusing the offsets /
  // lengths / positions capacity. Same validation (and abort) semantics as
  // BatchLayout::FromLengths.
  void BuildLayout();

  // Marks the end of packing: if any id/layout column had to reallocate
  // since BeginBatch, records one growth event (see TotalGrowthEvents).
  void FinishPack();

  // Grows a buffer to at least n elements, recording a growth event when
  // the capacity was insufficient.
  void EnsureF(std::vector<float>* buf, size_t n);

  static PackedBatch& ThreadLocal();

  // Process-wide count of workspace reallocation events. Flat across
  // steady-state micro-batches — the arena-steady-state test asserts the
  // delta is zero after warmup.
  static uint64_t TotalGrowthEvents();

 private:
  size_t PackCapacitySum() const;
  size_t pack_capacity_snapshot_ = 0;
};

}  // namespace qpe::nn

#endif  // QPE_NN_PACKED_BATCH_H_
