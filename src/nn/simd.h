#ifndef QPE_NN_SIMD_H_
#define QPE_NN_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace qpe::nn::simd {

// Instruction-set level of the kernel table in use. Exactly one non-scalar
// level is compiled per architecture (AVX2 on x86-64, NEON on aarch64); the
// scalar table is always built and is the bit-exactness reference: with
// QPE_SIMD=0 every kernel below produces the same bits the pre-SIMD scalar
// loops in nn/tensor.cc produced.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

// Kernel dispatch table, one per level, each built by MakeKernels in
// nn/simd_kernels_inl.h. All kernels operate on raw row-major buffers so
// every consumer shares them: the autograd ops of the per-plan op-chain
// oracle (nn/tensor.cc, whose MatMul, LinearRowBias and LinearRowBiasRelu
// all run linear_bias_act), the packed inference and training engine
// (nn/packed_forward, nn/packed_train), the fused Adam step
// (nn/optimizer.cc) and int8 calibration and serving (nn/quant.cc,
// encoder/quantized_encoder.cc). MatMulReference (nn/tensor.h) stays off
// the table: it is the GEMM oracle the table's linear is tested against.
//
// Numerics contract: the float kernels preserve each output element's
// accumulation order (axpy- and elementwise-shaped loops vectorize across
// independent output lanes, never across a reduction; a reduction may run
// with lanes across rows, each lane one row's chain in its order), and the
// vector
// variants use explicit mul+add — no FMA contraction. The one cross-level
// deviation is exp: the scalar table calls std::exp, the vector tables a
// polynomial (V::Exp, see nn/simd_kernels_inl.h), so every kernel that
// takes a softmax (the attention forwards and the attention backwards'
// probability recompute) agrees with the scalar table only within an
// epsilon contract (tests/simd_quant_test.cc). Every other float kernel is
// bit-identical to the scalar table at every level. The int8 kernels are
// pure integer and exact-rounding arithmetic and are bit-exact across all
// levels.
struct Kernels {
  Level level = Level::kScalar;
  const char* name = "scalar";

  // Row-wise layer norm: y = ((x - mean) * recip) * gamma + beta. The row
  // statistics keep the scalar chains (mean and variance summed in
  // ascending column order, then the clamped sqrt/log/exp reciprocal), so
  // every level gives the scalar bits: vector levels run the chains of L
  // rows at once, one row per lane of a transposed row tile, and the libm
  // calls per row. The normalize pass vectorizes across columns. Needs no
  // scratch.
  void (*layer_norm_rows)(const float* x, const float* gamma,
                          const float* beta, float* out, int m, int n,
                          float invn);
  // Fused embedding gather + positional add for the packed batch pipeline:
  //   out[r, :] = concat(e1[ids1[r]], e2[ids2[r]], e3[ids3[r]]) +
  //               pos[positions[r], :]
  // with out [rows, d1+d2+d3] row-major. Pure copies and elementwise adds
  // in ascending column order, so every level is bit-identical.
  void (*embed_gather_add)(const float* e1, const float* e2, const float* e3,
                           const float* pos, const int* ids1, const int* ids2,
                           const int* ids3, const int* positions, float* out,
                           int rows, int d1, int d2, int d3);
  // Fused multi-head self-attention forward over a ragged packed batch
  // (the semantics of nn::MultiHeadAttentionPacked): rows [offsets[s],
  // offsets[s] + lengths[s]) form sequence s, and each query attends to
  // the keys of its own sequence only. q and out are interleaved
  // [total_rows, dim] projections; keys arrive transposed per head as kbt
  // [head][head_dim][total_rows] (RepackHeadsKT) and values head-blocked
  // as vb [head][total_rows][head_dim] (RepackHeadsVB), so the score and
  // context loops stream contiguous memory. Per output element: scores as
  // ascending-c dots from +0 times scale, the row max, exp(score - max)
  // (V::Exp below floor(len / lanes) * lanes keys and expf beyond), the
  // sum in ascending j, and the context from the divided probabilities in
  // ascending j. The scalar table runs one query row at a time; vector
  // levels run each head's queries in tiles of one query per lane, with
  // the same arithmetic per lane. `probs` is caller-provided scratch of at
  // least max(lengths)^2 floats — a tile holds len * lanes of them, and a
  // sequence shorter than the lane count uses a stack tile — so the
  // kernel allocates nothing.
  void (*attention_forward_blocked)(const float* q, const float* kbt,
                                    const float* vb, float* out,
                                    const int* offsets, const int* lengths,
                                    int num_seqs, int num_heads,
                                    int total_rows, int dim, float scale,
                                    float* probs);
  // attention_forward_blocked for the CLS query of each sequence only:
  // kbt/vb as above (every key and value of the batch), but q and out are
  // compact [num_seqs, dim] — row s holds the query and the context of
  // sequence s's first token. `probs` needs max(lengths) floats. Out row s
  // equals row offsets[s] of attention_forward_blocked bit for bit, at
  // every level; the engine runs the last layer through it because only
  // the CLS rows leave that layer.
  void (*attention_cls_blocked)(const float* q, const float* kbt,
                                const float* vb, float* out,
                                const int* offsets, const int* lengths,
                                int num_seqs, int num_heads, int total_rows,
                                int dim, float scale, float* probs);
  // Quantized GEMM with int32 accumulation over pre-packed weight tiles:
  //   c[i, j] = act(dot(a[i, :], w[j, :]) * a_scale * b_scale[j] + bias[j])
  // where w [n][k] is the channel-major int8 weight matrix that
  // PackInt8WeightTiles turned into bp; a_scale is the one static
  // activation scale every row shares; bias may be null (no bias add);
  // act is the ReLU `> 0` clamp when `relu` is nonzero (the int8 ff1
  // site), identity otherwise. bp holds kInt8TileN output channels x
  // kInt8TileK k-steps per tile in the exact order the kernel consumes,
  // zero-padded in both dimensions and pre-sign-extended to int16 — the
  // values are still int8-range, but widening them once at pack time
  // removes the per-step sign extension of the weight side from the hot
  // loop. a is [m, Int8PackedKPad(k)] row-major int8 with the k tail of
  // every row zeroed by the caller. The padded entries contribute exact
  // zeros and integer accumulation is exact, so the result is
  // bit-identical, at every level, to a plain int32 dot loop over the
  // unpacked operands followed by ((total * a_scale) * b_scale[j]),
  // + bias[j] and the clamp.
  void (*int8_gemm_packed)(const int8_t* a, const int16_t* bp, float* c,
                           int m, int k, int n, float a_scale,
                           const float* b_scale, const float* bias,
                           int relu);
  // Quantizes n floats with one shared scale: round to nearest, ties away
  // from zero, saturating to [-127, 127] (the QuantizeValue contract, as
  // trunc(t + copysign(0.5, t)) — exact IEEE ops, so scalar and vector
  // lanes produce identical int8 for every input).
  void (*quantize_buffer)(const float* x, int n, float inv_scale,
                          int8_t* out);
  // The one forward linear, for the packed pipeline and the op chain's
  // MatMul / LinearRowBias / LinearRowBiasRelu alike: out = act(A * B +
  // bias) with A [m, k], B [k, n], bias [n] or null (no bias add); act is
  // ReLU when `relu` is nonzero. Writes every output element, reading none.
  // Per output element the value stream is the seed saxpy loop's
  // (MatMulReference): +0, the ascending-k mul/add pairs with the
  // aval == 0 terms skipped, then — with a bias — one bias add, then the
  // `> 0` clamp. Every level is bit-identical to that loop followed by a
  // bias pass and a `> 0 ? y : 0` pass. The scalar table runs it as
  // written. Vector
  // levels keep the accumulators in registers, with the bias/ReLU in the
  // GEMM epilogue, in register tiles of 3 rows x up to 4 vectors (each B
  // vector load serves 3 rows), and add the aval == 0 products the seed
  // skips: +/-0 added to a sum that starts at +0 changes no bit. That holds
  // for finite B only: a 0 * inf product puts a NaN where the skip adds
  // nothing.
  void (*linear_bias_act)(const float* a, const float* b, const float* bias,
                          float* out, int m, int k, int n, int relu);
  // dst[i] += src[i] over n floats (the packed pipeline's residual adds).
  // Elementwise; every level is bit-identical.
  void (*add_rows)(float* dst, const float* src, size_t n);

  // --- Backward kernels -----------------------------------------------
  // The training-side counterparts of the forwards above, with the same
  // numerics contract: the scalar table reproduces the pre-SIMD backward
  // closures in nn/tensor.cc bit for bit, and the vector tables preserve
  // each gradient element's accumulation order (dot-shaped reductions
  // keep their ascending order per lane; elementwise passes vectorize
  // freely). The one cross-level deviation is again V::Exp, which the
  // packed attention backward uses to recompute the softmax
  // probabilities — so at a vector level the recomputed probs match that
  // level's *forward* bits exactly, and only cross-level equality is
  // epsilon-gated (like the forward).

  // dA[i0:i1, :] += dOut[i0:i1, :] * B^T with dOut [m, n], B [k, n], read
  // through its transpose bt [n, k] (the caller transposes B once, before
  // splitting the rows across threads). Each dA element is one complete
  // ascending-j dot accumulated in a register and added to dA once — the
  // vector levels run lanes across the p (dA column) dimension of bt's
  // rows, in tiles of 3 dA rows that share each bt vector load, so every
  // lane's dot keeps the scalar's ascending-j order and the single final
  // add.
  void (*matmul_backward_a)(const float* og, const float* bt, float* ag,
                            int i0, int i1, int k, int n);
  // dB[p0:p1, :] += (A^T * dOut)[p0:p1, :] with A [m, k], dOut [m, n]:
  // i accumulated in ascending order per output element regardless of
  // the p partition. The scalar table makes the seed's rank-1 row
  // updates with its aval == 0 skip. Vector levels hold tiles of 4 dB
  // rows x 2 vectors in registers — one load, every input row's term in
  // ascending i, one store — and add the skipped products too: a
  // gradient buffer starts at +0 and is never -0, so a +/-0 product
  // changes no bit (finite dOut assumed; see MatMulBackwardBT).
  void (*matmul_backward_b)(const float* av, const float* og, float* bg,
                            int p0, int p1, int m, int k, int n);
  // Backward of a bias add and ReLU (linear_bias_act with a bias and
  // relu set): for elements where the forward output ov was > 0,
  // ag[r, c] += og[r, c] and bg[c] += og[r, c]; gated elements are
  // untouched. ag / bg may be null to skip that gradient. bg accumulates
  // rows in ascending order per column at every level.
  void (*bias_act_backward)(const float* ov, const float* og, float* ag,
                            float* bg, int m, int n);
  // Backward of layer_norm_rows: given forward input xv and gamma gv,
  // accumulates xg (input grad), gg (gamma grad) and bg (beta grad), any
  // of which may be null. Row statistics and the m1/m2 reductions stay
  // scalar ascending at every level; the gg/bg and xg passes are
  // elementwise and vectorize bit-identically.
  void (*layer_norm_rows_backward)(const float* xv, const float* gv,
                                   const float* og, float* xg, float* gg,
                                   float* bg, int m, int n, float invn);
  // Backward of attention_forward_blocked, reading q, k and v in their
  // interleaved [total_rows, dim] layout (the nn::MultiHeadAttentionPacked
  // op's backward): recomputes the probabilities (through V::Exp — see
  // above) and accumulates qg / kg / vg, any of which may be null.
  // `scratch` is caller-provided, at least 2 * max_len * (max_len +
  // head_dim) floats with max_len = max(lengths) and head_dim = dim /
  // num_heads — the kernel allocates nothing. All
  // dot reductions keep the scalar's ascending order per lane (lanes run
  // across key positions for the scores and d_probs, and across head
  // columns for the gradients). Each gradient element receives the
  // scalar's terms in the scalar's order — ascending key j for qg,
  // ascending query i for kg and vg — summed in a register tile between
  // one load and one store, so every level gives the bits a per-term add
  // into memory gives.
  void (*attention_backward_packed)(const float* qv, const float* kv,
                                    const float* vv, const float* og,
                                    float* qg, float* kg, float* vg,
                                    const int* offsets, const int* lengths,
                                    int num_seqs, int num_heads, int dim,
                                    float scale, float* scratch);
  // attention_backward_packed for the CLS query of each sequence only, the
  // backward of attention_cls_blocked: q, og and qg are compact
  // [num_seqs, dim]; keys and values arrive transposed per head, kbt and
  // vbt [head][head_dim][total_rows] (RepackHeadsKT of each); kg and vg
  // are interleaved [total_rows, dim] and receive every key's and value's
  // gradient. `probs` needs 2 * max(lengths) floats — the kernel allocates
  // nothing. When every other query's output gradient is zero, qg row s
  // equals row offsets[s] of attention_backward_packed's qg, and kg / vg
  // equal its kg / vg, bit for bit at every level: the skipped terms are
  // all ±0 added to gradient buffers.
  void (*attention_backward_cls)(const float* q, const float* kbt,
                                 const float* vbt, const float* og, float* qg,
                                 float* kg, float* vg, const int* offsets,
                                 const int* lengths, int num_seqs,
                                 int num_heads, int total_rows, int dim,
                                 float scale, float* probs);
  // Fused Adam parameter update over one flat parameter buffer:
  //   m[j] = beta1 * m[j] + (1 - beta1) * g[j]
  //   v[j] = beta2 * v[j] + (1 - beta2) * g[j] * g[j]
  //   value[j] -= lr * (m[j]/bias1) / (sqrt(v[j]/bias2) + eps)
  // Purely elementwise, and sqrt/div are correctly rounded IEEE ops, so
  // every level is bit-identical — lane for lane the vector path computes
  // the scalar expression tree (including the left-associated
  // ((1-beta2)*g)*g product).
  void (*adam_step)(float* value, const float* grad, float* m, float* v,
                    size_t n, float lr, float beta1, float beta2, float eps,
                    float bias1, float bias2);
};

// Tile geometry of the packed int8 weight layout: kInt8TileN output
// channels interleaved per tile, kInt8TileK quantized inputs per step (one
// 128-bit int8 vector).
inline constexpr int kInt8TileK = 16;
inline constexpr int kInt8TileN = 4;

// Internal linkage, like the helpers of nn/simd_kernels_inl.h: the ISA
// translation units call Int8PackedKPad too.
static inline int Int8PackedKPad(int k) {
  return ((k + kInt8TileK - 1) / kInt8TileK) * kInt8TileK;
}
static inline size_t Int8PackedSize(int k, int n) {
  const size_t tiles = static_cast<size_t>((n + kInt8TileN - 1) / kInt8TileN);
  return tiles * static_cast<size_t>(Int8PackedKPad(k)) * kInt8TileN;
}

// Repacks channel-contiguous int8 weights w [n][k] into the tiled layout
// int8_gemm_packed consumes:
//   packed[((t*KB + b)*kInt8TileN + ch)*kInt8TileK + kk] = w[(t*kInt8TileN +
//   ch)][b*kInt8TileK + kk]
// with KB = Int8PackedKPad(k)/kInt8TileK; out-of-range channels and k
// positions are zero. Each entry is the int8 weight sign-extended to
// int16 (see int8_gemm_packed). `packed` must hold Int8PackedSize(k, n)
// elements. Plain widening copies — done once at Quantize() time, never
// on the serve path.
void PackInt8WeightTiles(const int8_t* w, int k, int n, int16_t* packed);

// The active kernel table. Selected once on first use: the best level the
// hardware supports (cpuid on x86-64, getauxval on aarch64), downgraded by
// the QPE_SIMD environment knob ("0"/"scalar" force the scalar table,
// "avx2"/"neon" request a level and fall back to scalar unless it is the
// hardware level, see ResolveLevel) and forced to scalar under sanitizer
// builds (QPE_SANITIZE_BUILD) so TSan and ASan exercise the dispatch
// machinery without vendor intrinsics.
const Kernels& K();

// Level of the active table (== K().level).
Level ActiveLevel();

// Revision of the kernels' per-element arithmetic. The same weights and
// inputs give bit-identical outputs in two processes iff both run the same
// level at the same revision. Bump it with any change that moves a
// kernel's output bits (a lane-split reduction, another exp polynomial),
// so state that stores outputs, like a serving daemon's warm-state
// snapshot, refuses to mix arithmetics.
inline constexpr uint32_t kKernelArithmeticRevision = 1;

// The active level and kKernelArithmeticRevision as one stamp.
uint32_t ArithmeticStamp();

// Highest level this binary + CPU supports, before QPE_SIMD and sanitizer
// downgrades. Stamped into benchmark baselines next to the active level.
Level HardwareLevel();

const char* LevelName(Level level);

// Parses a QPE_SIMD-style string: "0"/"scalar" -> kScalar, "avx2" ->
// kAvx2, "neon" -> kNeon, "1"/"auto"/"" -> `fallback`. Unknown strings
// also return `fallback`. Exposed for tests.
Level ParseLevel(const char* s, Level fallback);

// The level a request resolves to on a machine whose HardwareLevel() is
// `hardware`: the request itself when it is scalar or equals `hardware`,
// otherwise scalar. A non-scalar table runs only on a CPU that reported
// its instruction set, so a request can never select code the CPU cannot
// execute. Exposed for tests.
Level ResolveLevel(Level requested, Level hardware);

// Test/bench hook: swap the active table. The request goes through
// ResolveLevel (and any non-scalar level clamps to scalar under a
// sanitizer build); returns the level actually installed. Not safe to call
// while kernels are running on other threads.
Level ForceLevel(Level level);

// Test hook: installs a caller-owned table (a copy of a real one with an
// entry swapped for a deliberately broken variant, say) and returns the
// table it replaced, which the caller reinstalls. Same threading caveat as
// ForceLevel.
const Kernels* InstallTable(const Kernels* table);

// Per-level tables; null when the level is not compiled into this binary.
// Scalar is always available.
const Kernels* TableFor(Level level);

}  // namespace qpe::nn::simd

#endif  // QPE_NN_SIMD_H_
