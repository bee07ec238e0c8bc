#ifndef QPE_NN_TRANSFORMER_H_
#define QPE_NN_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "nn/module.h"
#include "nn/tensor.h"
#include "util/status.h"

namespace qpe::nn {

// Row layout of a packed (ragged) batch: B variable-length sequences
// concatenated along the row axis into one [sum(lengths), d] matrix.
// Sequence s occupies rows [offsets[s], offsets[s] + lengths[s]).
//
// This is the batch representation of the serving path: all position-wise
// work (projections, layer norms, feed-forward) runs as a single GEMM over
// the packed matrix — one big matmul instead of B tiny ones — while
// attention operates on each sequence's row range, so no sequence ever
// attends across a batch boundary. Packing is the exact-arithmetic
// equivalent of a padded [B, L] batch with a padding mask: there are no
// padding rows to mask (and no FLOPs wasted on them).
// The layout is struct-of-arrays: each member is a contiguous column the
// kernels index directly (offsets/lengths feed the packed attention kernel,
// positions feeds the positional-embedding gather), with nothing
// interleaved per sequence.
struct BatchLayout {
  std::vector<int> offsets;    // first packed row of each sequence
  std::vector<int> lengths;    // rows (tokens) of each sequence
  std::vector<int> positions;  // within-sequence index of each packed row
  int total_rows = 0;          // sum of lengths

  // Builds the layout, aborting with a message on invalid input (the
  // in-process callers all construct lengths from plans they just
  // linearized, so a bad length here is a programming error).
  static BatchLayout FromLengths(const std::vector<int>& lengths);
  // Validating variant for lengths that cross a trust boundary (network
  // daemon, file replay): rejects non-positive lengths and total_rows
  // overflow with a descriptive error instead of building a bogus layout.
  // Validation happens before any allocation proportional to total_rows.
  static util::StatusOr<BatchLayout> FromLengthsChecked(
      const std::vector<int>& lengths);
  int size() const { return static_cast<int>(lengths.size()); }
};

// Multi-head self-attention (Vaswani et al. 2017, as used by the paper's
// structure encoder §3.1.2). Operates on one sequence: x is [T, d].
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(int dim, int num_heads, util::Rng* rng);

  Tensor Forward(const Tensor& x) const;  // [T, d] -> [T, d]

  int dim() const { return dim_; }
  int num_heads() const { return num_heads_; }

 private:
  int dim_;
  int num_heads_;
  int head_dim_;
  Linear* wq_;
  Linear* wk_;
  Linear* wv_;
  Linear* wo_;
};

// One pre-norm transformer encoder layer: self-attention and a
// position-wise feed-forward block, each with a residual connection.
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(int dim, int num_heads, int ff_dim, float dropout,
                          util::Rng* rng);

  // [T, d] -> [T, d]. `dropout_rng` may be null to disable dropout (eval).
  Tensor Forward(const Tensor& x, util::Rng* dropout_rng) const;

 private:
  MultiHeadSelfAttention* attention_;
  LayerNorm* norm1_;
  LayerNorm* norm2_;
  Linear* ff1_;
  Linear* ff2_;
  float dropout_;
};

// Stack of encoder layers with learned positional embeddings.
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(int dim, int num_heads, int ff_dim, int num_layers,
                     int max_len, float dropout, util::Rng* rng);

  // [T, d] token embeddings -> [T, d] contextualized embeddings.
  Tensor Forward(const Tensor& x, util::Rng* dropout_rng) const;

  int dim() const { return dim_; }

 private:
  int dim_;
  int max_len_;
  Tensor positional_;  // [max_len, d]
  std::vector<TransformerEncoderLayer*> layers_;
};

// Single-layer LSTM over a sequence; returns the final hidden state (and
// optionally all hidden states). Used by the LSTM-PPSR baseline (§6.1).
class Lstm : public Module {
 public:
  Lstm(int input_dim, int hidden_dim, util::Rng* rng);

  // [T, input_dim] -> final hidden state [1, hidden_dim].
  Tensor Forward(const Tensor& x) const;
  // [T, input_dim] -> all hidden states [T, hidden_dim].
  Tensor ForwardAll(const Tensor& x) const;

  int hidden_dim() const { return hidden_dim_; }

 private:
  int input_dim_;
  int hidden_dim_;
  Linear* input_gates_;   // x_t -> 4*hidden (i, f, g, o)
  Linear* hidden_gates_;  // h_{t-1} -> 4*hidden
};

}  // namespace qpe::nn

#endif  // QPE_NN_TRANSFORMER_H_
