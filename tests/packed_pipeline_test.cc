// Packed-batch pipeline tests: FromLengthsChecked validation, the fused
// embedding-gather kernel, the head-blocked and CLS-only attention
// kernels, the packed int8 GEMM, the quantize_buffer contract (ties away
// from zero, saturation), packed-vs-per-plan encoder parity at adversarial
// batch shapes x model depths x SIMD levels x thread counts,
// packed-vs-per-plan training
// parity, and the arena-steady-state contract (zero heap acquisitions per
// micro-batch after warmup).

#include <algorithm>
#include <array>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "data/plan_corpus.h"
#include "encoder/ppsr.h"
#include "encoder/quantized_encoder.h"
#include "encoder/structure_encoder.h"
#include "gtest/gtest.h"
#include "nn/arena.h"
#include "nn/packed_batch.h"
#include "nn/packed_forward.h"
#include "nn/quant.h"
#include "nn/simd.h"
#include "nn/simd_kernels_inl.h"
#include "nn/tensor.h"
#include "nn/transformer.h"
#include "plan/plan_node.h"
#include "serve/embedding_service.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qpe {
namespace {

using nn::BatchLayout;
using nn::simd::Kernels;
using nn::simd::Level;

// Restores the dispatched kernel table on scope exit so a forced level
// never leaks into other tests.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : saved_(nn::simd::ActiveLevel()) {}
  ~SimdLevelGuard() { nn::simd::ForceLevel(saved_); }

 private:
  Level saved_;
};

// Restores the global thread count on scope exit.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(util::MaxThreads()) {}
  ~ThreadCountGuard() { util::SetMaxThreads(saved_); }

 private:
  int saved_;
};

// Routes EncodeBatchGrad through the per-plan op-chain loop of the base
// class: the bitwise oracle the packed training step must reproduce.
class PerPlanTrainEncoder : public encoder::TransformerPlanEncoder {
 public:
  using TransformerPlanEncoder::TransformerPlanEncoder;
  std::vector<nn::Tensor> EncodeBatchGrad(
      std::span<const plan::PlanNode* const> plans,
      util::Rng* dropout_rng) const override {
    return PlanSequenceEncoder::EncodeBatchGrad(plans, dropout_rng);
  }
};

std::vector<float> RandomVec(size_t n, util::Rng* rng, float scale = 1.0f) {
  std::vector<float> v(n);
  for (float& x : v) {
    x = scale * static_cast<float>(rng->Uniform() * 2.0 - 1.0);
  }
  return v;
}

std::vector<int8_t> RandomInt8(size_t n, util::Rng* rng) {
  std::vector<int8_t> v(n);
  for (int8_t& x : v) {
    x = static_cast<int8_t>(
        static_cast<int>(rng->Uniform() * 255.0) - 127);
  }
  return v;
}

// The vector table compiled into this binary (if the hardware supports
// it); on scalar-only hardware the parity tests run scalar-vs-scalar and
// trivially pass.
const Kernels* VectorTable() {
  return nn::simd::TableFor(nn::simd::HardwareLevel());
}

encoder::StructureEncoderConfig SmallConfig() {
  encoder::StructureEncoderConfig config;
  config.level1_dim = 12;
  config.level2_dim = 6;
  config.level3_dim = 6;
  config.num_heads = 2;
  config.ff_dim = 32;
  config.num_layers = 2;
  config.max_len = 128;
  config.dropout = 0.0f;
  return config;
}

std::vector<std::unique_ptr<plan::PlanNode>> SamplePlans(int count,
                                                         uint64_t seed,
                                                         int min_nodes = 4,
                                                         int max_nodes = 24) {
  data::CorpusOptions options;
  options.min_nodes = min_nodes;
  options.max_nodes = max_nodes;
  data::RandomPlanGenerator generator(util::Rng(seed), options);
  std::vector<std::unique_ptr<plan::PlanNode>> plans;
  plans.reserve(count);
  for (int i = 0; i < count; ++i) plans.push_back(generator.Generate());
  return plans;
}

std::vector<const plan::PlanNode*> Pointers(
    const std::vector<std::unique_ptr<plan::PlanNode>>& plans) {
  std::vector<const plan::PlanNode*> ptrs;
  ptrs.reserve(plans.size());
  for (const auto& p : plans) ptrs.push_back(p.get());
  return ptrs;
}

// --- BatchLayout::FromLengthsChecked hardening ------------------------------

TEST(FromLengthsCheckedTest, AcceptsValidLengths) {
  const auto layout = BatchLayout::FromLengthsChecked({1, 5, 3});
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout.value().total_rows, 9);
  EXPECT_EQ(layout.value().offsets, (std::vector<int>{0, 1, 6}));
  EXPECT_EQ(layout.value().positions,
            (std::vector<int>{0, 0, 1, 2, 3, 4, 0, 1, 2}));
}

TEST(FromLengthsCheckedTest, RejectsZeroAndNegativeLengths) {
  const auto zero = BatchLayout::FromLengthsChecked({3, 0, 2});
  ASSERT_FALSE(zero.ok());
  EXPECT_NE(zero.status().message().find("sequence 1"), std::string::npos)
      << zero.status().message();
  EXPECT_NE(zero.status().message().find("non-positive"), std::string::npos);

  const auto negative = BatchLayout::FromLengthsChecked({-5});
  ASSERT_FALSE(negative.ok());
  EXPECT_NE(negative.status().message().find("sequence 0"),
            std::string::npos);
  EXPECT_NE(negative.status().message().find("-5"), std::string::npos);
}

TEST(FromLengthsCheckedTest, RejectsTotalRowsOverflow) {
  // Each length is individually valid; the running total overflows int.
  // Validation must reject this before allocating anything proportional to
  // the bogus total (the test would OOM otherwise).
  const auto overflow = BatchLayout::FromLengthsChecked({INT_MAX, INT_MAX});
  ASSERT_FALSE(overflow.ok());
  EXPECT_NE(overflow.status().message().find("overflow"), std::string::npos)
      << overflow.status().message();
  EXPECT_NE(overflow.status().message().find("sequence 1"),
            std::string::npos);
}

TEST(FromLengthsCheckedTest, EmptyBatchIsValid) {
  const auto layout = BatchLayout::FromLengthsChecked({});
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout.value().total_rows, 0);
  EXPECT_EQ(layout.value().size(), 0);
}

// --- Fused embedding gather + positional add --------------------------------

TEST(PackedKernelTest, EmbedGatherAddMatchesScalarBitwise) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  ASSERT_NE(scalar, nullptr);
  util::Rng rng(91);
  // Odd per-level dims so every segment exercises its tail lanes.
  const int d1 = 13, d2 = 5, d3 = 7;
  const int d = d1 + d2 + d3;
  const int vocab1 = 19, vocab2 = 11, vocab3 = 9, max_len = 17;
  const std::vector<float> e1 = RandomVec(static_cast<size_t>(vocab1) * d1,
                                          &rng);
  const std::vector<float> e2 = RandomVec(static_cast<size_t>(vocab2) * d2,
                                          &rng);
  const std::vector<float> e3 = RandomVec(static_cast<size_t>(vocab3) * d3,
                                          &rng);
  const std::vector<float> pos = RandomVec(static_cast<size_t>(max_len) * d,
                                           &rng);
  for (const int rows : {1, 3, 17}) {
    std::vector<int> ids1(rows), ids2(rows), ids3(rows), positions(rows);
    for (int r = 0; r < rows; ++r) {
      ids1[r] = static_cast<int>(rng.Uniform() * vocab1);
      ids2[r] = static_cast<int>(rng.Uniform() * vocab2);
      ids3[r] = static_cast<int>(rng.Uniform() * vocab3);
      positions[r] = static_cast<int>(rng.Uniform() * max_len);
    }
    std::vector<float> out_s(static_cast<size_t>(rows) * d, -1.0f);
    std::vector<float> out_v(static_cast<size_t>(rows) * d, -2.0f);
    scalar->embed_gather_add(e1.data(), e2.data(), e3.data(), pos.data(),
                             ids1.data(), ids2.data(), ids3.data(),
                             positions.data(), out_s.data(), rows, d1, d2,
                             d3);
    vec->embed_gather_add(e1.data(), e2.data(), e3.data(), pos.data(),
                          ids1.data(), ids2.data(), ids3.data(),
                          positions.data(), out_v.data(), rows, d1, d2, d3);
    // Reference: explicit gather + add. Pure copies and adds, so every
    // level must match it bit for bit.
    for (int r = 0; r < rows; ++r) {
      const float* prow = pos.data() + static_cast<size_t>(positions[r]) * d;
      for (int c = 0; c < d; ++c) {
        const float* table =
            c < d1 ? e1.data() + static_cast<size_t>(ids1[r]) * d1 + c
            : c < d1 + d2
                ? e2.data() + static_cast<size_t>(ids2[r]) * d2 + (c - d1)
                : e3.data() + static_cast<size_t>(ids3[r]) * d3 +
                      (c - d1 - d2);
        const float expect = *table + prow[c];
        const size_t idx = static_cast<size_t>(r) * d + c;
        ASSERT_EQ(out_s[idx], expect) << "row " << r << " col " << c;
        ASSERT_EQ(out_v[idx], expect) << "row " << r << " col " << c;
      }
    }
  }
}

// --- Head-blocked attention -------------------------------------------------

// Bitwise equality (memcmp, so -0 and +0 differ), naming the first
// differing index.
void ExpectSameBits(const std::vector<float>& a, const std::vector<float>& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0) return;
  size_t i = 0;
  while (std::memcmp(&a[i], &b[i], sizeof(float)) == 0) ++i;
  ADD_FAILURE() << what << ": index " << i << " " << a[i] << " vs " << b[i];
}

// Runs attention_forward_blocked at `table`'s level and checks every output
// row offsets[s] + i against row s of attention_cls_blocked over a compact
// query matrix whose row s is query offsets[s] + i (one call per query
// index i, over the sequences longer than i). The CLS instantiation runs
// the row code — scores along the keys, SoftmaxRowT, the context along
// head_dim — so this holds the vector levels' query tiles to the row
// arithmetic for every query, bit for bit. The probability scratch is
// NaN-filled and exactly max(lengths)^2 (max(lengths) for the CLS
// kernel) floats, and both outputs NaN-filled: a read before a write, or
// an element never written, poisons the comparison.
void ExpectBlockedRowsMatchClsRows(const Kernels& table,
                                   const BatchLayout& layout,
                                   const std::vector<float>& q,
                                   const std::vector<float>& kbt,
                                   const std::vector<float>& vb,
                                   int num_heads, int d, float scale,
                                   const std::string& what) {
  const int rows = layout.total_rows;
  const int max_len =
      *std::max_element(layout.lengths.begin(), layout.lengths.end());
  std::vector<float> out(static_cast<size_t>(rows) * d, std::nanf(""));
  std::vector<float> probs(static_cast<size_t>(max_len) * max_len,
                           std::nanf(""));
  table.attention_forward_blocked(q.data(), kbt.data(), vb.data(),
                                  out.data(), layout.offsets.data(),
                                  layout.lengths.data(), layout.size(),
                                  num_heads, rows, d, scale, probs.data());
  for (int i = 0; i < max_len; ++i) {
    std::vector<int> offsets, lengths;
    std::vector<float> q_rows, want;
    for (int s = 0; s < layout.size(); ++s) {
      if (layout.lengths[s] <= i) continue;
      offsets.push_back(layout.offsets[s]);
      lengths.push_back(layout.lengths[s]);
      const size_t row = static_cast<size_t>(layout.offsets[s] + i) * d;
      q_rows.insert(q_rows.end(), q.begin() + row, q.begin() + row + d);
      want.insert(want.end(), out.begin() + row, out.begin() + row + d);
    }
    const int n = static_cast<int>(offsets.size());
    std::vector<float> got(static_cast<size_t>(n) * d, std::nanf(""));
    std::vector<float> cls_probs(max_len, std::nanf(""));
    table.attention_cls_blocked(q_rows.data(), kbt.data(), vb.data(),
                                got.data(), offsets.data(), lengths.data(),
                                n, num_heads, rows, d, scale,
                                cls_probs.data());
    ExpectSameBits(want, got, what + " query " + std::to_string(i));
  }
}

TEST(PackedKernelTest, AttentionBlockedRowsMatchClsRowCodePerLevel) {
  // Every query row of the blocked kernel against the CLS row code, at
  // each level (see ExpectBlockedRowsMatchClsRows).
  util::Rng rng(92);
  const int num_heads = 3, head_dim = 5;
  const int d = num_heads * head_dim;
  const std::vector<int> lengths = {1, 7, 3, 1, 12};
  const BatchLayout layout = BatchLayout::FromLengths(lengths);
  const int rows = layout.total_rows;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));

  const std::vector<float> q = RandomVec(static_cast<size_t>(rows) * d, &rng);
  const std::vector<float> k = RandomVec(static_cast<size_t>(rows) * d, &rng);
  const std::vector<float> v = RandomVec(static_cast<size_t>(rows) * d, &rng);
  std::vector<float> kbt(static_cast<size_t>(rows) * d);
  std::vector<float> vb(static_cast<size_t>(rows) * d);
  nn::RepackHeadsKT(k.data(), rows, d, num_heads, kbt.data());
  nn::RepackHeadsVB(v.data(), rows, d, num_heads, vb.data());

  for (const Level level : {Level::kScalar, nn::simd::HardwareLevel()}) {
    const Kernels* table = nn::simd::TableFor(level);
    if (table == nullptr) continue;
    ExpectBlockedRowsMatchClsRows(*table, layout, q, kbt, vb, num_heads, d,
                                  scale, table->name);
  }
}

TEST(PackedKernelTest, AttentionClsMatchesBlockedClsRowsPerLevel) {
  // The CLS-only instantiation runs query 0 of every sequence through the
  // same arithmetic as the full kernel, so its compact output row s must
  // equal row offsets[s] of attention_forward_blocked bit for bit. The
  // lengths straddle the 4-query tile and the 8-lane AVX2 vector,
  // including their scalar tails; head_dim 12 adds a vector context loop
  // with an overlapping tail to head_dim 5's scalar one.
  util::Rng rng(93);
  const std::vector<int> lengths = {1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17};
  const BatchLayout layout = BatchLayout::FromLengths(lengths);
  const int rows = layout.total_rows;
  const int num_seqs = layout.size();
  int max_len = 0;
  for (const int len : lengths) max_len = std::max(max_len, len);
  std::vector<float> probs(static_cast<size_t>(max_len) * max_len);
  const int num_heads = 3;
  for (const int head_dim : {5, 12}) {
    const int d = num_heads * head_dim;
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
    const size_t rd = static_cast<size_t>(rows) * d;
    const std::vector<float> q = RandomVec(rd, &rng);
    const std::vector<float> k = RandomVec(rd, &rng);
    const std::vector<float> v = RandomVec(rd, &rng);
    std::vector<float> kbt(rd), vb(rd);
    nn::RepackHeadsKT(k.data(), rows, d, num_heads, kbt.data());
    nn::RepackHeadsVB(v.data(), rows, d, num_heads, vb.data());
    std::vector<float> q_cls(static_cast<size_t>(num_seqs) * d);
    for (int s = 0; s < num_seqs; ++s) {
      std::copy_n(q.begin() + static_cast<size_t>(layout.offsets[s]) * d, d,
                  q_cls.begin() + static_cast<size_t>(s) * d);
    }
    for (const Level level : {Level::kScalar, nn::simd::HardwareLevel()}) {
      const Kernels* table = nn::simd::TableFor(level);
      if (table == nullptr) continue;
      std::vector<float> out_full(rd, 0.0f);
      std::vector<float> out_cls(static_cast<size_t>(num_seqs) * d, -1.0f);
      table->attention_forward_blocked(
          q.data(), kbt.data(), vb.data(), out_full.data(),
          layout.offsets.data(), layout.lengths.data(), num_seqs, num_heads,
          rows, d, scale, probs.data());
      table->attention_cls_blocked(q_cls.data(), kbt.data(), vb.data(),
                                   out_cls.data(), layout.offsets.data(),
                                   layout.lengths.data(), num_seqs,
                                   num_heads, rows, d, scale, probs.data());
      for (int s = 0; s < num_seqs; ++s) {
        for (int c = 0; c < d; ++c) {
          ASSERT_EQ(out_full[static_cast<size_t>(layout.offsets[s]) * d + c],
                    out_cls[static_cast<size_t>(s) * d + c])
              << "level " << table->name << " head_dim " << head_dim
              << " length " << lengths[s] << " col " << c;
        }
      }
    }
  }
}

TEST(PackedKernelTest, AttentionBlockedQueryTilesBitExactPerLevel) {
  // The vector levels run the blocked forward with lanes across queries;
  // every lane must still be the row code's arithmetic, so each query row
  // equals the CLS kernel's row for that query bit for bit at each level
  // (ExpectBlockedRowsMatchClsRows). Lengths 1-40 cover every length below
  // one vector (a batch of only those uses the stack tile), spare lanes in
  // the last query tile and every key remainder block. head_dim 1-3 and 12
  // run one context block (the divide folded in), 5 and 16-24 two (the
  // first writes the divided probabilities back), and 20 and 24 two q^T
  // column blocks. Zeroed q rows tie a whole score row at +0, zeroed
  // entries tie single products.
  util::Rng rng(95);
  std::vector<int> long_lengths;
  for (const int i : rng.Permutation(33)) long_lengths.push_back(8 + i);
  long_lengths.insert(long_lengths.begin() + 5, 2);
  long_lengths.insert(long_lengths.begin() + 20, 7);
  const std::vector<std::vector<int>> batches = {{7, 1, 6, 2, 5, 3, 4},
                                                 long_lengths};
  const int num_heads = 2;
  for (const std::vector<int>& lengths : batches) {
    const BatchLayout layout = BatchLayout::FromLengths(lengths);
    const int rows = layout.total_rows;
    const int max_len = *std::max_element(lengths.begin(), lengths.end());
    for (const int head_dim : {1, 2, 3, 5, 12, 16, 20, 24}) {
      const int d = num_heads * head_dim;
      const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
      const size_t rd = static_cast<size_t>(rows) * d;
      std::vector<float> q = RandomVec(rd, &rng);
      for (int r = 0; r < rows; r += 5) {
        std::fill_n(q.begin() + static_cast<size_t>(r) * d, d, 0.0f);
      }
      for (size_t i = 3; i < rd; i += 7) q[i] = 0.0f;
      const std::vector<float> k = RandomVec(rd, &rng);
      const std::vector<float> v = RandomVec(rd, &rng);
      std::vector<float> kbt(rd), vb(rd);
      nn::RepackHeadsKT(k.data(), rows, d, num_heads, kbt.data());
      nn::RepackHeadsVB(v.data(), rows, d, num_heads, vb.data());
      for (const Level level : {Level::kScalar, nn::simd::HardwareLevel()}) {
        const Kernels* table = nn::simd::TableFor(level);
        if (table == nullptr) continue;
        ExpectBlockedRowsMatchClsRows(
            *table, layout, q, kbt, vb, num_heads, d, scale,
            std::string(table->name) + " head_dim " +
                std::to_string(head_dim) + " max_len " +
                std::to_string(max_len));
      }
    }
  }
}

TEST(PackedKernelTest, LayerNormRowsMatchRowStatsPerLevel) {
  // The statistics run with lanes across rows at vector levels; each row
  // must still get LayerNormRowStats' bits. m covers every partial row
  // tile at 4 and 8 lanes; n = 65 and 130 cross the transposed column
  // chunk, so the variance pass transposes again.
  util::Rng rng(96);
  std::vector<int> ms;
  for (int m = 1; m <= 17; ++m) ms.push_back(m);
  ms.push_back(100);
  for (const int n : {1, 7, 48, 64, 65, 130}) {
    const std::vector<float> gamma = RandomVec(n, &rng);
    const std::vector<float> beta = RandomVec(n, &rng);
    const float invn = 1.0f / static_cast<float>(n);
    for (const int m : ms) {
      const size_t total = static_cast<size_t>(m) * n;
      std::vector<float> x = RandomVec(total, &rng, 3.0f);
      // A constant row: zero variance, the clamped end of the recip chain.
      if (m > 2) std::fill_n(x.begin() + n, n, 0.25f);
      std::vector<float> expect(total);
      for (int r = 0; r < m; ++r) {
        const float* xrow = x.data() + static_cast<size_t>(r) * n;
        float mean, recip;
        nn::simd::LayerNormRowStats(xrow, n, invn, &mean, &recip);
        for (int c = 0; c < n; ++c) {
          expect[static_cast<size_t>(r) * n + c] =
              ((xrow[c] - mean) * recip) * gamma[c] + beta[c];
        }
      }
      for (const Level level : {Level::kScalar, nn::simd::HardwareLevel()}) {
        const Kernels* table = nn::simd::TableFor(level);
        if (table == nullptr) continue;
        std::vector<float> out(total, std::nanf(""));
        table->layer_norm_rows(x.data(), gamma.data(), beta.data(),
                               out.data(), m, n, invn);
        ExpectSameBits(expect, out,
                       std::string(table->name) + " m " + std::to_string(m) +
                           " n " + std::to_string(n));
      }
    }
  }
}

TEST(PackedKernelTest, AttentionBackwardClsMatchesPackedPerLevel) {
  // The training step's last layer: only the CLS rows carry an output
  // gradient. attention_backward_cls must give attention_backward_packed's
  // exact gradients for that case — qg on the CLS rows, kg and vg on every
  // row — at every level, accumulating into the buffers' prior contents.
  // Length 1 has no other key; the other lengths straddle the 8-lane AVX2
  // vector with and without a tail; head_dim 3 runs no vector lane at all,
  // head_dim 12 a vector and a tail.
  util::Rng rng(94);
  const std::vector<int> lengths = {1, 2, 3, 5, 7, 8, 9, 12, 16, 17, 1, 31};
  const BatchLayout layout = BatchLayout::FromLengths(lengths);
  const int rows = layout.total_rows;
  const int num_seqs = layout.size();
  int max_len = 0;
  for (const int len : lengths) max_len = std::max(max_len, len);
  std::vector<float> probs(2 * static_cast<size_t>(max_len));
  const int num_heads = 4;
  std::vector<float> scratch;
  // Row s of a compact [num_seqs, d] copy of src's CLS rows.
  auto cls_rows = [&](const std::vector<float>& src, int d) {
    std::vector<float> out(static_cast<size_t>(num_seqs) * d);
    for (int s = 0; s < num_seqs; ++s) {
      std::copy_n(src.begin() + static_cast<size_t>(layout.offsets[s]) * d,
                  d, out.begin() + static_cast<size_t>(s) * d);
    }
    return out;
  };
  for (const int head_dim : {3, 12}) {
    const int d = num_heads * head_dim;
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
    const size_t rd = static_cast<size_t>(rows) * d;
    scratch.resize(2 * static_cast<size_t>(max_len) * (max_len + head_dim));
    const std::vector<float> q = RandomVec(rd, &rng);
    const std::vector<float> k = RandomVec(rd, &rng);
    const std::vector<float> v = RandomVec(rd, &rng);
    std::vector<float> og = RandomVec(rd, &rng);
    std::vector<bool> is_cls(rows, false);
    for (int s = 0; s < num_seqs; ++s) is_cls[layout.offsets[s]] = true;
    for (int r = 0; r < rows; ++r) {
      if (is_cls[r]) continue;
      std::fill_n(og.begin() + static_cast<size_t>(r) * d, d, 0.0f);
    }
    const std::vector<float> qg0 = RandomVec(rd, &rng);
    const std::vector<float> kg0 = RandomVec(rd, &rng);
    const std::vector<float> vg0 = RandomVec(rd, &rng);
    std::vector<float> kbt(rd), vbt(rd);
    nn::RepackHeadsKT(k.data(), rows, d, num_heads, kbt.data());
    nn::RepackHeadsKT(v.data(), rows, d, num_heads, vbt.data());
    const std::vector<float> q_cls = cls_rows(q, d);
    const std::vector<float> og_cls = cls_rows(og, d);
    for (const Level level : {Level::kScalar, nn::simd::HardwareLevel()}) {
      const Kernels* table = nn::simd::TableFor(level);
      if (table == nullptr) continue;
      std::vector<float> qg = qg0, kg = kg0, vg = vg0;
      table->attention_backward_packed(
          q.data(), k.data(), v.data(), og.data(), qg.data(), kg.data(),
          vg.data(), layout.offsets.data(), layout.lengths.data(), num_seqs,
          num_heads, d, scale, scratch.data());
      std::vector<float> qg_cls = cls_rows(qg0, d);
      std::vector<float> kg_cls = kg0, vg_cls = vg0;
      table->attention_backward_cls(
          q_cls.data(), kbt.data(), vbt.data(), og_cls.data(), qg_cls.data(),
          kg_cls.data(), vg_cls.data(), layout.offsets.data(),
          layout.lengths.data(), num_seqs, num_heads, rows, d, scale,
          probs.data());
      const std::string what = std::string("level ") + table->name +
                               " head_dim " + std::to_string(head_dim);
      EXPECT_EQ(cls_rows(qg, d), qg_cls) << "qg, " << what;
      EXPECT_EQ(kg, kg_cls) << "kg, " << what;
      EXPECT_EQ(vg, vg_cls) << "vg, " << what;
    }
  }
}

// --- Packed int8 GEMM -------------------------------------------------------

// Reference int8 GEMM over the unpacked operands: plain int32 dot products
// of a [m, k] against channel-major w [n, k], then the clamp `> 0 ? y : 0`
// per element when relu is set. Integer arithmetic is exact, so every
// level's packed kernel must match it bit for bit.
void Int8GemmReference(const int8_t* a, const int8_t* w, float* c, int m,
                       int k, int n, float a_scale, const float* b_scale,
                       const float* bias, int relu) {
  for (int i = 0; i < m; ++i) {
    const int8_t* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const int8_t* wrow = w + static_cast<size_t>(j) * k;
      int32_t acc = 0;
      for (int p = 0; p < k; ++p) {
        acc += static_cast<int32_t>(arow[p]) * static_cast<int32_t>(wrow[p]);
      }
      float y = static_cast<float>(acc) * a_scale * b_scale[j];
      if (bias != nullptr) y += bias[j];
      if (relu != 0) y = y > 0 ? y : 0.0f;
      crow[j] = y;
    }
  }
}

TEST(PackedKernelTest, Int8GemmPackedMatchesUnpackedBitwise) {
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  const Kernels* vec = VectorTable();
  util::Rng rng(93);
  // k not a multiple of 16 and n not a multiple of 4 exercise both padding
  // dimensions of the tile layout; m = 1..9 covers every row count up to
  // past three tiles of 3 rows.
  std::vector<std::array<int, 3>> shapes = {{1, 1, 1},   {3, 7, 5},
                                            {2, 16, 4},  {5, 24, 6},
                                            {17, 48, 33}, {4, 130, 99}};
  for (int m = 1; m <= 9; ++m) {
    shapes.push_back({m, 20, 7});
    shapes.push_back({m, 48, 48});
  }
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    const int k_pad = nn::simd::Int8PackedKPad(k);
    const std::vector<int8_t> a = RandomInt8(static_cast<size_t>(m) * k,
                                             &rng);
    const std::vector<int8_t> w = RandomInt8(static_cast<size_t>(n) * k,
                                             &rng);
    const float a_scale = 0.01f + 0.04f * static_cast<float>(rng.Uniform());
    const std::vector<float> b_scale = RandomVec(n, &rng, 0.05f);
    const std::vector<float> bias = RandomVec(n, &rng);

    // Padded activations: k tail of every row zeroed, as the caller
    // contract requires.
    std::vector<int8_t> a_pad(static_cast<size_t>(m) * k_pad, 0);
    for (int i = 0; i < m; ++i) {
      std::copy(a.begin() + static_cast<size_t>(i) * k,
                a.begin() + static_cast<size_t>(i) * k + k,
                a_pad.begin() + static_cast<size_t>(i) * k_pad);
    }
    std::vector<int16_t> packed(nn::simd::Int8PackedSize(k, n));
    nn::simd::PackInt8WeightTiles(w.data(), k, n, packed.data());

    for (const float* b_ptr : {bias.data(), static_cast<const float*>(
                                                nullptr)}) {
      for (const int relu : {0, 1}) {
        std::vector<float> ref(static_cast<size_t>(m) * n, 0.0f);
        Int8GemmReference(a.data(), w.data(), ref.data(), m, k, n, a_scale,
                          b_scale.data(), b_ptr, relu);
        for (const Kernels* table : {scalar, vec}) {
          if (table == nullptr) continue;
          std::vector<float> got(static_cast<size_t>(m) * n, -1.0f);
          table->int8_gemm_packed(a_pad.data(), packed.data(), got.data(), m,
                                  k, n, a_scale, b_scale.data(), b_ptr,
                                  relu);
          // Integer accumulation is exact, so the packed layout must
          // reproduce the unpacked result bit for bit at every level.
          for (size_t i = 0; i < ref.size(); ++i) {
            ASSERT_EQ(std::bit_cast<uint32_t>(ref[i]),
                      std::bit_cast<uint32_t>(got[i]))
                << "level " << table->name << " shape " << m << "x" << k
                << "x" << n << " index " << i
                << (b_ptr ? " bias" : " no-bias") << " relu " << relu;
          }
        }
      }
    }
  }
}

// --- quantize_buffer --------------------------------------------------------

TEST(PackedKernelTest, QuantizeBufferMatchesQuantizeValue) {
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  const Kernels* vec = VectorTable();
  util::Rng rng(94);
  const float scale = 0.25f;
  const float inv = 1.0f / scale;
  // Ties (x/scale = ±N.5) must round away from zero; large magnitudes
  // saturate to ±127; everything else rounds to nearest.
  std::vector<float> x = {0.0f,   -0.0f,  0.375f, -0.375f, 0.125f,
                          -0.125f, 31.75f, -31.75f, 1000.0f, -1000.0f,
                          0.124999f, 5.0f};
  std::vector<float> noise = RandomVec(21, &rng, 40.0f);
  x.insert(x.end(), noise.begin(), noise.end());
  // n = 1..17 ends a buffer at every lane of two 8-lane vectors, and the
  // offsets shift which values land in the vector body and which in the
  // tail.
  std::vector<int> lengths;
  for (int n = 1; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(static_cast<int>(x.size()));
  for (const int offset : {0, 5, 12}) {
    for (const int n : lengths) {
      if (offset + n > static_cast<int>(x.size())) continue;
      const float* xs = x.data() + offset;
      for (const Kernels* table : {scalar, vec}) {
        if (table == nullptr) continue;
        std::vector<int8_t> out(n + 1, 99);
        table->quantize_buffer(xs, n, inv, out.data());
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], nn::QuantizeValue(xs[i], inv))
              << "level " << table->name << " n " << n << " offset "
              << offset << " x " << xs[i];
        }
        ASSERT_EQ(out[n], 99) << "level " << table->name << " n " << n
                              << " wrote past the buffer";
      }
    }
  }
  // Explicit tie spot-checks against hand-computed values.
  const float tie[] = {0.375f, -0.375f};  // /0.25 = 1.5, -1.5
  int8_t got[2];
  scalar->quantize_buffer(tie, 2, inv, got);
  EXPECT_EQ(got[0], 2);
  EXPECT_EQ(got[1], -2);
  const float sat[] = {1000.0f, -1000.0f};
  scalar->quantize_buffer(sat, 2, inv, got);
  EXPECT_EQ(got[0], 127);
  EXPECT_EQ(got[1], -127);
}

// --- Packed encoder vs per-plan Encode at adversarial shapes ----------------
//
// The packing/unpacking property: for every batch shape, SIMD level, and
// thread count, packed EncodeBatch must reproduce the per-plan Encode path
// bit for bit — both dispatch the same kernel table, and the packed
// training path, which shares the engine, is bitwise at every level too.

void CheckPackedMatchesPerPlan(const encoder::TransformerPlanEncoder& enc,
                               std::span<const plan::PlanNode* const> ptrs,
                               const char* what) {
  nn::NoGradGuard no_grad;
  const std::vector<nn::Tensor> batched = enc.EncodeBatch(ptrs, nullptr);
  ASSERT_EQ(batched.size(), ptrs.size());
  for (size_t i = 0; i < ptrs.size(); ++i) {
    const nn::Tensor single = enc.Encode(*ptrs[i], nullptr);
    ASSERT_EQ(batched[i].rows(), 1);
    ASSERT_EQ(batched[i].cols(), single.cols());
    for (int c = 0; c < single.cols(); ++c) {
      ASSERT_EQ(batched[i].at(0, c), single.at(0, c))
          << what << " plan " << i << " dim " << c;
    }
  }
}

TEST(PackedEncoderTest, AdversarialShapesAcrossLevelsAndThreads) {
  SimdLevelGuard level_guard;
  ThreadCountGuard thread_guard;
  util::Rng rng(95);
  // max_len 16: the deep plan below truncates while the tiny ones fit.
  encoder::StructureEncoderConfig config = SmallConfig();
  config.max_len = 16;
  const encoder::TransformerPlanEncoder enc(config, &rng);
  // The engine runs its last layer CLS-only: 0 layers leave nothing to
  // trim, 1 layer trims the only one, 3 trim after two full layers, and
  // the projection reads the trimmed layer's [B, d] output.
  struct Model {
    std::string name;
    const encoder::TransformerPlanEncoder* enc;
  };
  std::vector<Model> models = {{"2-layers", &enc}};
  std::vector<std::unique_ptr<encoder::TransformerPlanEncoder>> owned;
  auto add_model = [&](const std::string& name, int num_layers,
                       int output_dim) {
    encoder::StructureEncoderConfig c = config;
    c.num_layers = num_layers;
    c.output_dim = output_dim;
    owned.push_back(
        std::make_unique<encoder::TransformerPlanEncoder>(c, &rng));
    models.push_back({name, owned.back().get()});
  };
  add_model("0-layers", 0, 0);
  add_model("1-layer", 1, 0);
  add_model("3-layers", 3, 0);
  add_model("2-layers+projection", 2, 16);

  // Batch of 1; a batch of uniformly tiny plans; one deep (truncated) plan
  // among tiny ones — the max_len row next to length-3 rows is the worst
  // case for the ragged layout.
  const auto single = SamplePlans(1, 201);
  auto tiny = SamplePlans(9, 202, /*min_nodes=*/1, /*max_nodes=*/2);
  auto mixed = SamplePlans(6, 203, /*min_nodes=*/1, /*max_nodes=*/2);
  auto deep = SamplePlans(1, 204, /*min_nodes=*/40, /*max_nodes=*/60);
  mixed.insert(mixed.begin() + 3, std::move(deep[0]));

  struct Case {
    const char* name;
    std::vector<const plan::PlanNode*> ptrs;
  };
  const Case cases[] = {{"batch-of-1", Pointers(single)},
                        {"all-tiny", Pointers(tiny)},
                        {"deep-among-tiny", Pointers(mixed)}};

  for (const Level level : {Level::kScalar, nn::simd::HardwareLevel()}) {
    if (nn::simd::ForceLevel(level) != level) continue;  // sanitize build
    for (const int threads : {1, 4}) {
      util::SetMaxThreads(threads);
      for (const Model& model : models) {
        for (const Case& c : cases) {
          CheckPackedMatchesPerPlan(
              *model.enc, c.ptrs,
              (model.name + " " + c.name + " level " +
               nn::simd::LevelName(level) + " threads " +
               std::to_string(threads))
                  .c_str());
        }
      }
    }
  }
}

// --- Packed training vs per-plan op chain -----------------------------------
//
// PerPlanTrainEncoder routes EncodeBatchGrad through the per-plan Encode
// loop (the gradient-bit reference). The packed training path must match it
// bit for bit — forward values, dropout streams, and every accumulated
// parameter gradient — at EVERY SIMD level (both paths dispatch the same
// kernel table).

std::vector<std::vector<float>> ParamGrads(const nn::Module& m) {
  std::vector<std::vector<float>> grads;
  for (const auto& [name, tensor] : m.NamedParameters()) {
    grads.push_back(tensor.grad());
  }
  return grads;
}

// Output values and parameter gradients of one EncodeBatchGrad + Backward
// over `ptrs` (dropout stream seeded 7). `between`, when set, runs after
// the forward and before Backward().
struct GradRun {
  std::vector<std::vector<float>> values;
  std::vector<std::vector<float>> grads;
};
GradRun RunEncodeBatchGrad(encoder::TransformerPlanEncoder& enc,
                           std::span<const plan::PlanNode* const> ptrs,
                           const std::function<void()>& between = {}) {
  enc.ZeroGrad();
  util::Rng dropout_rng(7);
  const std::vector<nn::Tensor> outs = enc.EncodeBatchGrad(ptrs, &dropout_rng);
  // Distinct per-plan weights so a swapped or misrouted gradient cannot
  // cancel out.
  nn::Tensor loss = Sum(outs[0]);
  for (size_t i = 1; i < outs.size(); ++i) {
    loss = Add(loss, Scale(Sum(outs[i]), 0.5f + static_cast<float>(i)));
  }
  if (between) between();
  loss.Backward();
  GradRun run;
  for (const nn::Tensor& t : outs) run.values.push_back(t.value());
  run.grads = ParamGrads(enc);
  return run;
}

void ExpectSameRun(const GradRun& want, const GradRun& got,
                   const std::string& what) {
  ASSERT_EQ(want.values.size(), got.values.size());
  for (size_t i = 0; i < want.values.size(); ++i) {
    ASSERT_EQ(want.values[i], got.values[i]) << "values, plan " << i << what;
  }
  ASSERT_EQ(want.grads.size(), got.grads.size());
  for (size_t i = 0; i < want.grads.size(); ++i) {
    ASSERT_EQ(want.grads[i], got.grads[i]) << "grads, param " << i << what;
  }
}

TEST(PackedTrainTest, EncodeBatchGradMatchesPerPlanBitwise) {
  SimdLevelGuard level_guard;
  for (const bool projection : {false, true}) {
    encoder::StructureEncoderConfig config = SmallConfig();
    config.dropout = 0.25f;  // exercises the mask-stream contract
    config.output_dim = projection ? 10 : 0;
    util::Rng init(101);
    util::Rng oracle_init(101);
    encoder::TransformerPlanEncoder enc(config, &init);
    PerPlanTrainEncoder oracle(config, &oracle_init);
    enc.SetTraining(true);
    oracle.SetTraining(true);
    const auto plans = SamplePlans(5, 212);
    const auto ptrs = Pointers(plans);

    for (const Level level : {Level::kScalar, nn::simd::HardwareLevel()}) {
      if (nn::simd::ForceLevel(level) != level) continue;  // sanitize build
      ExpectSameRun(RunEncodeBatchGrad(oracle, ptrs),
                    RunEncodeBatchGrad(enc, ptrs),
                    std::string(" level ") + nn::simd::LevelName(level) +
                        (projection ? " projection" : ""));
    }
  }
}

TEST(PackedTrainTest, InferenceBetweenForwardAndBackwardKeepsGradients) {
  // The recording forward packs into its own workspace, not the thread's
  // inference workspace, so an EncodeBatch (fp32 or int8) on the same
  // thread between EncodeBatchGrad and Backward() must leave the gradients
  // bit-identical.
  encoder::StructureEncoderConfig config = SmallConfig();
  config.dropout = 0.25f;
  util::Rng init(103);
  encoder::TransformerPlanEncoder enc(config, &init);
  enc.SetTraining(true);
  const auto plans = SamplePlans(4, 214);
  const auto ptrs = Pointers(plans);
  const auto other = SamplePlans(9, 215, /*min_nodes=*/20, /*max_nodes=*/24);
  const auto other_ptrs = Pointers(other);
  const std::unique_ptr<encoder::QuantizedPlanEncoder> int8 =
      enc.Quantize(other_ptrs);

  const GradRun plain = RunEncodeBatchGrad(enc, ptrs);
  const GradRun interleaved = RunEncodeBatchGrad(enc, ptrs, [&] {
    nn::NoGradGuard no_grad;
    (void)enc.EncodeBatch(other_ptrs, nullptr);
    (void)int8->EncodeBatch(other_ptrs, nullptr);
  });
  ExpectSameRun(plain, interleaved, " with inference interleaved");
}

TEST(PackedTrainTest, SecondRecordingBeforeBackwardAborts) {
  // A second recording forward on the thread overwrites the tape the first
  // one's backward reads; the generation guard must refuse it cleanly.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  encoder::StructureEncoderConfig config = SmallConfig();
  util::Rng init(104);
  const encoder::TransformerPlanEncoder enc(config, &init);
  const auto plans = SamplePlans(3, 216);
  const auto ptrs = Pointers(plans);
  EXPECT_DEATH(
      {
        const std::vector<nn::Tensor> first =
            enc.EncodeBatchGrad(ptrs, nullptr);
        (void)enc.EncodeBatchGrad(ptrs, nullptr);
        Sum(first[0]).Backward();
      },
      "retained activations were overwritten");
}

TEST(PackedTrainTest, TrainPpsrPackedMatchesPerPlanAtOneAndFourThreads) {
  // End-to-end: whole TrainPpsr runs (dropout, Adam, grad clipping, shard
  // reduction) must land on bit-identical weights with the packed training
  // step and with the per-plan oracle, at 1 or 4 threads.
  data::PairDatasetOptions options;
  options.num_pairs = 27;
  options.corpus.min_nodes = 4;
  options.corpus.max_nodes = 12;
  const data::PlanPairDataset dataset = BuildCorpusPairDataset(options);

  SimdLevelGuard level_guard;
  ThreadCountGuard thread_guard;
  encoder::StructureEncoderConfig config = SmallConfig();
  config.dropout = 0.1f;
  config.output_dim = 10;

  auto train = [&](bool packed, int threads) {
    util::SetMaxThreads(threads);
    util::Rng rng(42);
    std::unique_ptr<encoder::PlanSequenceEncoder> enc;
    if (packed) {
      enc = std::make_unique<encoder::TransformerPlanEncoder>(config, &rng);
    } else {
      enc = std::make_unique<PerPlanTrainEncoder>(config, &rng);
    }
    encoder::PpsrModel model(std::move(enc), &rng);
    encoder::PpsrTrainOptions train_options;
    train_options.epochs = 2;
    TrainPpsr(&model, dataset.train, train_options);
    std::vector<std::vector<float>> values;
    for (const auto& [name, tensor] : model.NamedParameters()) {
      values.push_back(tensor.value());
    }
    return values;
  };

  for (const Level level : {Level::kScalar, nn::simd::HardwareLevel()}) {
    if (nn::simd::ForceLevel(level) != level) continue;  // sanitize build
    const auto reference = train(/*packed=*/false, 1);
    const struct {
      bool packed;
      int threads;
    } cases[] = {{true, 1}, {true, 4}, {false, 4}};
    for (const auto& c : cases) {
      const auto got = train(c.packed, c.threads);
      ASSERT_EQ(reference.size(), got.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(reference[i], got[i])
            << "param " << i << " level " << nn::simd::LevelName(level)
            << (c.packed ? " packed" : " per-plan") << " threads "
            << c.threads;
      }
    }
  }
}

TEST(PackedTrainTest, EvaluatePpsrMaeMatchesPerPlanOracle) {
  // EvaluatePpsrMae predicts under a NoGradGuard, where EncodeBatchGrad
  // hands the pair to the packed inference engine; the oracle subclass
  // runs the per-plan op chain. The MAE must carry the same bits, at the
  // scalar level and the host's, at 1 and 4 threads.
  data::PairDatasetOptions options;
  options.num_pairs = 27;
  options.corpus.min_nodes = 1;
  options.corpus.max_nodes = 30;
  const data::PlanPairDataset dataset = BuildCorpusPairDataset(options);

  SimdLevelGuard level_guard;
  ThreadCountGuard thread_guard;
  encoder::StructureEncoderConfig config = SmallConfig();
  config.dropout = 0.1f;
  config.output_dim = 10;
  auto mae = [&](bool packed) {
    util::Rng rng(43);
    std::unique_ptr<encoder::PlanSequenceEncoder> enc;
    if (packed) {
      enc = std::make_unique<encoder::TransformerPlanEncoder>(config, &rng);
    } else {
      enc = std::make_unique<PerPlanTrainEncoder>(config, &rng);
    }
    encoder::PpsrModel model(std::move(enc), &rng);
    return EvaluatePpsrMae(model, dataset.train);
  };
  for (const Level level : {Level::kScalar, nn::simd::HardwareLevel()}) {
    if (nn::simd::ForceLevel(level) != level) continue;  // sanitize build
    for (const int threads : {1, 4}) {
      util::SetMaxThreads(threads);
      const double want = mae(/*packed=*/false);
      const double got = mae(/*packed=*/true);
      EXPECT_EQ(std::bit_cast<uint64_t>(want), std::bit_cast<uint64_t>(got))
          << want << " vs " << got << " level "
          << nn::simd::LevelName(level) << " threads " << threads;
    }
  }
}

// The last layer trains CLS-only: parity with the per-plan oracle at every
// depth (0 layers leave nothing to trim, 1 trims the only layer, 3 trim
// after two full ones), with and without the projection, with and without
// dropout, over a batch that includes one-token plans.
struct TrimCase {
  int num_layers;
  int output_dim;
  float dropout;
};
testing::AssertionResult TrimmedTrainingMatchesPerPlan(const TrimCase& c) {
  encoder::StructureEncoderConfig config = SmallConfig();
  config.num_layers = c.num_layers;
  config.output_dim = c.output_dim;
  config.dropout = c.dropout;
  util::Rng init(105);
  util::Rng oracle_init(105);
  encoder::TransformerPlanEncoder enc(config, &init);
  PerPlanTrainEncoder oracle(config, &oracle_init);
  enc.SetTraining(true);
  oracle.SetTraining(true);
  const auto plans = SamplePlans(7, 217, /*min_nodes=*/1, /*max_nodes=*/20);
  const auto ptrs = Pointers(plans);
  const GradRun want = RunEncodeBatchGrad(oracle, ptrs);
  const GradRun got = RunEncodeBatchGrad(enc, ptrs);
  if (want.values != got.values) {
    return testing::AssertionFailure() << "output values differ";
  }
  for (size_t i = 0; i < want.grads.size(); ++i) {
    if (want.grads[i] != got.grads[i]) {
      return testing::AssertionFailure() << "gradient of param " << i
                                         << " differs";
    }
  }
  return testing::AssertionSuccess();
}

TEST(PackedTrainTest, TrimmedLastLayerMatchesPerPlanAcrossShapes) {
  SimdLevelGuard level_guard;
  for (const Level level : {Level::kScalar, nn::simd::HardwareLevel()}) {
    if (nn::simd::ForceLevel(level) != level) continue;  // sanitize build
    for (const int num_layers : {0, 1, 3}) {
      for (const int output_dim : {0, 10}) {
        for (const float dropout : {0.0f, 0.25f}) {
          EXPECT_TRUE(
              TrimmedTrainingMatchesPerPlan({num_layers, output_dim, dropout}))
              << "level " << nn::simd::LevelName(level) << " layers "
              << num_layers << " output_dim " << output_dim << " dropout "
              << dropout;
        }
      }
    }
  }
}

// Negative control for the parity above: a CLS attention backward that
// drops the CLS queries' dK/dV contribution — the only contribution the
// trimmed layer's keys and values receive — must break it.
const Kernels* g_real_table = nullptr;
void AttentionBackwardClsWithoutKv(const float* q, const float* kbt,
                                   const float* vbt, const float* og,
                                   float* qg, float* kg, float* vg,
                                   const int* offsets, const int* lengths,
                                   int num_seqs, int num_heads,
                                   int total_rows, int dim, float scale,
                                   float* probs) {
  const size_t n = static_cast<size_t>(total_rows) * dim;
  std::vector<float> kg_lost(kg, kg + n), vg_lost(vg, vg + n);
  g_real_table->attention_backward_cls(
      q, kbt, vbt, og, qg, kg_lost.data(), vg_lost.data(), offsets, lengths,
      num_seqs, num_heads, total_rows, dim, scale, probs);
}

TEST(PackedTrainTest, DroppingClsKeyValueGradientsBreaksParity) {
  SimdLevelGuard level_guard;
  for (const Level level : {Level::kScalar, nn::simd::HardwareLevel()}) {
    if (nn::simd::ForceLevel(level) != level) continue;  // sanitize build
    g_real_table = nn::simd::TableFor(level);
    Kernels mutant = *g_real_table;
    mutant.attention_backward_cls = &AttentionBackwardClsWithoutKv;
    const Kernels* previous = nn::simd::InstallTable(&mutant);
    for (const int num_layers : {1, 3}) {
      EXPECT_FALSE(TrimmedTrainingMatchesPerPlan({num_layers, 0, 0.0f}))
          << "level " << nn::simd::LevelName(level) << " layers "
          << num_layers;
    }
    nn::simd::InstallTable(previous);
  }
}

// --- Arena steady state -----------------------------------------------------

TEST(PackedSteadyStateTest, ZeroArenaTrafficAndGrowthAfterWarmup) {
  // After warmup, repeated identical micro-batches through the serving
  // facade must touch the arena zero times (the packed workspace persists,
  // results are built outside any arena) and never grow the workspace.
  ThreadCountGuard thread_guard;
  util::SetMaxThreads(1);
  util::Rng rng(99);
  const encoder::TransformerPlanEncoder enc(SmallConfig(), &rng);
  serve::EmbeddingServiceConfig config;
  config.cache.capacity = 0;  // every request re-encodes every plan
  config.batch_size = 8;
  serve::EmbeddingService service(&enc, config);
  const auto plans = SamplePlans(24, 209);
  const auto ptrs = Pointers(plans);

  for (int warm = 0; warm < 3; ++warm) (void)service.EncodeAll(ptrs);

  const nn::MemoryStats before = nn::GlobalMemoryStats();
  const uint64_t growth_before = nn::PackedBatch::TotalGrowthEvents();
  for (int iter = 0; iter < 5; ++iter) (void)service.EncodeAll(ptrs);
  const nn::MemoryStats after = nn::GlobalMemoryStats();
  const uint64_t growth_after = nn::PackedBatch::TotalGrowthEvents();

  EXPECT_EQ(after.bytes_requested, before.bytes_requested);
  EXPECT_EQ(after.arena_hits, before.arena_hits);
  EXPECT_EQ(after.arena_misses, before.arena_misses);
  EXPECT_EQ(growth_after, growth_before);
  EXPECT_EQ(service.GetStats().packed_growth_events, growth_after);
}

TEST(PackedSteadyStateTest, LargerBatchRecordsGrowthEvent) {
  // The growth telemetry must actually fire when the high-water mark
  // moves: encoding a strictly larger batch after warmup grows at least
  // one workspace buffer.
  ThreadCountGuard thread_guard;
  util::SetMaxThreads(1);
  util::Rng rng(100);
  encoder::StructureEncoderConfig config = SmallConfig();
  const encoder::TransformerPlanEncoder enc(config, &rng);
  nn::NoGradGuard no_grad;
  const auto small = SamplePlans(2, 210, /*min_nodes=*/1, /*max_nodes=*/2);
  (void)enc.EncodeBatch(Pointers(small), nullptr);
  (void)enc.EncodeBatch(Pointers(small), nullptr);

  const uint64_t before = nn::PackedBatch::TotalGrowthEvents();
  const auto big = SamplePlans(32, 211, /*min_nodes=*/20, /*max_nodes=*/24);
  (void)enc.EncodeBatch(Pointers(big), nullptr);
  EXPECT_GT(nn::PackedBatch::TotalGrowthEvents(), before);
}

}  // namespace
}  // namespace qpe
