#include <cstdint>
#include <cstring>
#include <memory>

#include "data/plan_corpus.h"
#include "gtest/gtest.h"
#include "plan/plan_node.h"
#include "plan/taxonomy.h"
#include "smatch/smatch.h"
#include "util/rng.h"

namespace qpe::smatch {
namespace {

using plan::OperatorType;
using plan::PlanNode;

OperatorType Op(const std::string& token) { return OperatorType::Parse(token); }

std::unique_ptr<PlanNode> SmallPlanA() {
  auto root = std::make_unique<PlanNode>(Op("Sort"));
  PlanNode* join = root->AddChild(Op("Join-Hash"));
  join->AddChild(Op("Scan-Seq"));
  join->AddChild(Op("Scan-Index"));
  return root;
}

std::unique_ptr<PlanNode> SmallPlanB() {
  auto root = std::make_unique<PlanNode>(Op("Sort"));
  PlanNode* join = root->AddChild(Op("Join-Merge"));
  join->AddChild(Op("Scan-Seq"));
  join->AddChild(Op("Scan-Seq"));
  return root;
}

// Random tree over a small operator pool, for property sweeps.
std::unique_ptr<PlanNode> RandomTree(util::Rng* rng, int nodes) {
  static const char* kPool[] = {"Sort",       "Join-Hash", "Join-Merge",
                                "Loop-Nested", "Scan-Seq",  "Scan-Index",
                                "Aggregate-Hash", "Limit"};
  std::vector<PlanNode*> all;
  auto root = std::make_unique<PlanNode>(Op(kPool[rng->UniformInt(0, 7)]));
  all.push_back(root.get());
  for (int i = 1; i < nodes; ++i) {
    PlanNode* parent = all[rng->UniformInt(0, all.size() - 1)];
    all.push_back(parent->AddChild(Op(kPool[rng->UniformInt(0, 7)])));
  }
  return root;
}

TEST(SmatchTest, IdenticalPlansScoreOne) {
  const auto a = SmallPlanA();
  const auto b = a->Clone();
  const SmatchScore score = Score(*a, *b);
  EXPECT_DOUBLE_EQ(score.f1, 1.0);
  EXPECT_DOUBLE_EQ(score.precision, 1.0);
  EXPECT_DOUBLE_EQ(score.recall, 1.0);
}

TEST(SmatchTest, ScoreInUnitInterval) {
  const auto a = SmallPlanA();
  const auto b = SmallPlanB();
  const SmatchScore score = Score(*a, *b);
  EXPECT_GT(score.f1, 0.0);
  EXPECT_LT(score.f1, 1.0);
}

TEST(SmatchTest, CompletelyDifferentTypesStillMatchNilLevels) {
  // Two single-node plans with different L1 but both NIL L2/L3 share 2 of 3
  // instance triples.
  PlanNode a(Op("Sort"));
  PlanNode b(Op("Limit"));
  const SmatchScore score = Score(a, b);
  EXPECT_NEAR(score.f1, 2.0 / 3.0, 1e-9);
}

TEST(SmatchTest, SymmetricF1) {
  util::Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const auto a = RandomTree(&rng, 8);
    const auto b = RandomTree(&rng, 11);
    const double ab = Score(*a, *b).f1;
    const double ba = Score(*b, *a).f1;
    EXPECT_NEAR(ab, ba, 1e-9);
  }
}

TEST(SmatchTest, PrecisionRecallSwapUnderArgumentSwap) {
  const auto a = SmallPlanA();
  auto b = SmallPlanA();
  b->AddChild(Op("Limit"));  // make sizes differ
  const SmatchScore ab = Score(*a, *b);
  const SmatchScore ba = Score(*b, *a);
  EXPECT_NEAR(ab.precision, ba.recall, 1e-9);
  EXPECT_NEAR(ab.recall, ba.precision, 1e-9);
}

TEST(SmatchTest, HillClimbMatchesExactOnSmallPlans) {
  util::Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const auto a = RandomTree(&rng, 2 + trial % 6);
    const auto b = RandomTree(&rng, 2 + (trial * 3) % 6);
    const SmatchScore approx = Score(*a, *b);
    const SmatchScore exact = ScoreExact(*a, *b);
    // Hill climbing is a lower bound and usually equals the optimum here.
    EXPECT_LE(approx.matched_triples, exact.matched_triples);
    EXPECT_GE(approx.matched_triples, exact.matched_triples - 1);
  }
}

TEST(SmatchTest, ExactIdentityIsPerfect) {
  const auto a = SmallPlanA();
  EXPECT_DOUBLE_EQ(ScoreExact(*a, *a->Clone()).f1, 1.0);
}

TEST(SmatchTest, SubtreeScoresHigherThanUnrelated) {
  // A plan vs. the same plan with a small addition should be more similar
  // than the plan vs. a structurally different plan.
  const auto base = SmallPlanA();
  auto extended = SmallPlanA();
  extended->AddChild(Op("Limit"));
  const double close = Score(*base, *extended).f1;
  const double far = Score(*base, *SmallPlanB()).f1;
  EXPECT_GT(close, far);
}

TEST(SmatchTest, FlattenCountsNodesAndEdges) {
  const auto a = SmallPlanA();
  const FlatPlan flat = Flatten(*a);
  EXPECT_EQ(flat.types.size(), 4u);
  EXPECT_EQ(flat.edges.size(), 3u);
  EXPECT_EQ(flat.NumTriples(), 15);
}

TEST(SmatchTest, DeterministicAcrossCalls) {
  util::Rng rng(5);
  const auto a = RandomTree(&rng, 20);
  const auto b = RandomTree(&rng, 20);
  const double s1 = Score(*a, *b).f1;
  const double s2 = Score(*a, *b).f1;
  EXPECT_DOUBLE_EQ(s1, s2);
}

TEST(SmatchTest, LargePlansComplete) {
  util::Rng rng(11);
  const auto a = RandomTree(&rng, 150);
  const auto b = RandomTree(&rng, 180);
  const SmatchScore score = Score(*a, *b);
  EXPECT_GT(score.f1, 0.0);
  EXPECT_LE(score.f1, 1.0);
}

TEST(SmatchTest, EmptyRightPlanGivesZero) {
  const auto a = SmallPlanA();
  FlatPlan empty;
  const SmatchScore score = Score(Flatten(*a), empty);
  EXPECT_DOUBLE_EQ(score.f1, 0.0);
}

// --- Golden regression sweep -------------------------------------------------
//
// Smatch labels supervise the structure encoder, so every PPSR dataset and
// trained model depends on the hill climber making exactly the same moves.
// These values were recorded from the original hash-set implementation; any
// change in move order, tie-breaking, the improvement test or the restart
// RNG draws changes them. A truncated climb (2 passes) is included because
// its result depends on which move each pass picks, not only on the optimum
// the climbs converge to.

struct GoldenPair {
  int left_nodes = 0;
  int right_nodes = 0;
  int ab = 0;         // Score(a, b).matched_triples
  int ba = 0;         // Score(b, a).matched_triples
  int truncated = 0;  // Score(a, b, {restarts = 2, max_passes = 2})
  int exact = -1;     // ScoreExact(a, b) when both sides have <= 8 nodes
};

std::unique_ptr<PlanNode> GeneratePlan(util::Rng* rng, int min_nodes,
                                       int max_nodes) {
  data::CorpusOptions options;
  options.min_nodes = min_nodes;
  options.max_nodes = max_nodes;
  data::RandomPlanGenerator generator(rng->Fork(), options);
  return generator.Generate();
}

// 520 pairs: mostly 2-60 nodes, every 8th 60-140, every 65th 150-200; half
// the pairs relate the right side to the left by relabelling.
std::vector<GoldenPair> GoldenSweep(uint64_t* digest) {
  util::Rng rng(2026);
  std::vector<GoldenPair> out;
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  auto f1_bits = [](double f1) {
    uint64_t bits = 0;
    std::memcpy(&bits, &f1, sizeof(bits));
    return bits;
  };
  for (int k = 0; k < 520; ++k) {
    int lo = 2, hi = 60;
    if (k % 65 == 64) {
      lo = 150, hi = 196;
    } else if (k % 8 == 7) {
      lo = 60, hi = 136;
    }
    const int size = static_cast<int>(rng.UniformInt(lo, hi));
    const auto a = GeneratePlan(&rng, size, size + 4);
    std::unique_ptr<PlanNode> b;
    if (rng.Bernoulli(0.5)) {
      data::RandomPlanGenerator mutator(rng.Fork());
      b = mutator.Mutate(*a, rng.Uniform(0.05, 0.5));
    } else {
      const int other = static_cast<int>(rng.UniformInt(lo, hi));
      b = GeneratePlan(&rng, other, other + 4);
    }
    const SmatchScore ab = Score(*a, *b);
    const SmatchScore ba = Score(*b, *a);
    SmatchOptions truncated_options;
    truncated_options.restarts = 2;
    truncated_options.max_passes = 2;
    truncated_options.seed = static_cast<uint64_t>(k);
    GoldenPair pair;
    pair.left_nodes = a->NumNodes();
    pair.right_nodes = b->NumNodes();
    pair.ab = ab.matched_triples;
    pair.ba = ba.matched_triples;
    pair.truncated = Score(*a, *b, truncated_options).matched_triples;
    if (pair.left_nodes <= 8 && pair.right_nodes <= 8) {
      pair.exact = ScoreExact(*a, *b).matched_triples;
    }
    for (int v : {pair.left_nodes, pair.right_nodes, pair.ab, pair.ba,
                  pair.truncated, pair.exact}) {
      mix(static_cast<uint64_t>(static_cast<int64_t>(v)));
    }
    mix(f1_bits(ab.f1));
    mix(f1_bits(ba.f1));
    out.push_back(pair);
  }
  *digest = h;
  return out;
}

TEST(SmatchGoldenTest, SweepMatchesRecordedLabels) {
  uint64_t digest = 0;
  const std::vector<GoldenPair> sweep = GoldenSweep(&digest);
  ASSERT_EQ(sweep.size(), 520u);
  int exact_pairs = 0, max_nodes = 0;
  for (const GoldenPair& p : sweep) {
    if (p.exact >= 0) {
      ++exact_pairs;
      EXPECT_LE(p.ab, p.exact);
    }
    max_nodes = std::max({max_nodes, p.left_nodes, p.right_nodes});
  }
  EXPECT_EQ(exact_pairs, 20);
  EXPECT_EQ(max_nodes, 197);
  // {left nodes, right nodes, ab, ba, truncated, exact} of a few pairs.
  const struct {
    int k;
    GoldenPair want;
  } kSpelled[] = {
      {0, {59, 6, 19, 19, 18, -1}},       {1, {41, 49, 115, 115, 108, -1}},
      {2, {31, 42, 90, 90, 83, -1}},      {3, {5, 5, 17, 17, 17, 17}},
      {7, {90, 90, 329, 329, 277, -1}},   {64, {178, 178, 616, 616, 548, -1}},
      {519, {176, 176, 563, 563, 508, -1}},
  };
  for (const auto& [k, want] : kSpelled) {
    const GoldenPair& got = sweep[k];
    EXPECT_EQ(got.left_nodes, want.left_nodes) << "pair " << k;
    EXPECT_EQ(got.right_nodes, want.right_nodes) << "pair " << k;
    EXPECT_EQ(got.ab, want.ab) << "pair " << k;
    EXPECT_EQ(got.ba, want.ba) << "pair " << k;
    EXPECT_EQ(got.truncated, want.truncated) << "pair " << k;
    EXPECT_EQ(got.exact, want.exact) << "pair " << k;
  }
  EXPECT_EQ(digest, 0x76804e46e12192beULL);
}

// Property sweep: restarts should never decrease the score.
class SmatchRestartTest : public ::testing::TestWithParam<int> {};

TEST_P(SmatchRestartTest, MoreRestartsNeverWorse) {
  util::Rng rng(31 + GetParam());
  const auto a = RandomTree(&rng, 12);
  const auto b = RandomTree(&rng, 14);
  SmatchOptions one;
  one.restarts = 1;
  SmatchOptions many;
  many.restarts = 8;
  EXPECT_GE(Score(*a, *b, many).matched_triples,
            Score(*a, *b, one).matched_triples);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmatchRestartTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace qpe::smatch
