#include "smatch/smatch.h"

#include <algorithm>
#include <span>

#include "util/rng.h"

namespace qpe::smatch {

namespace {

// Number of matching instance triples if left node i is mapped to right
// node j: one per equal taxonomy sub-type (all levels always present).
int InstanceMatches(const plan::OperatorType& a, const plan::OperatorType& b) {
  return (a.level1 == b.level1) + (a.level2 == b.level2) +
         (a.level3 == b.level3);
}

// One plan as tables: its edges as a dense n x n byte matrix (edge[p*n + c]
// is 1 iff (p, c) is an edge) plus the transpose, so both the children row
// of p and the parents column of c are contiguous; and its adjacency lists
// as CSR arrays in edge order.
struct PlanTables {
  int n = 0;
  std::vector<uint8_t> edge;
  std::vector<uint8_t> edge_t;
  std::vector<int> child_start, child;    // children of i: child[child_start[i]..)
  std::vector<int> parent_start, parent;  // parents of i: parent[parent_start[i]..)

  void Build(const FlatPlan& plan) {
    n = static_cast<int>(plan.types.size());
    const size_t cells = static_cast<size_t>(n) * n;
    edge.assign(cells, 0);
    edge_t.assign(cells, 0);
    child_start.assign(n + 1, 0);
    parent_start.assign(n + 1, 0);
    for (const auto& [p, c] : plan.edges) {
      edge[static_cast<size_t>(p) * n + c] = 1;
      edge_t[static_cast<size_t>(c) * n + p] = 1;
      ++child_start[p + 1];
      ++parent_start[c + 1];
    }
    for (int i = 0; i < n; ++i) {
      child_start[i + 1] += child_start[i];
      parent_start[i + 1] += parent_start[i];
    }
    child.resize(plan.edges.size());
    parent.resize(plan.edges.size());
    std::vector<int> next_child(child_start.begin(), child_start.end() - 1);
    std::vector<int> next_parent(parent_start.begin(), parent_start.end() - 1);
    for (const auto& [p, c] : plan.edges) {
      child[next_child[p]++] = c;
      parent[next_parent[c]++] = p;
    }
  }

  std::span<const int> Children(int i) const {
    return {child.data() + child_start[i], child.data() + child_start[i + 1]};
  }
  std::span<const int> Parents(int i) const {
    return {parent.data() + parent_start[i],
            parent.data() + parent_start[i + 1]};
  }
};

// One orientation of a pair: map `left` nodes onto `right` nodes.
struct Problem {
  const PlanTables& left;
  const PlanTables& right;
  const int8_t* inst;  // inst[i*nr + j]: instance matches for i -> j
  int nl, nr;

  Problem(const PlanTables& l, const PlanTables& r, const int8_t* inst_table)
      : left(l), right(r), inst(inst_table), nl(l.n), nr(r.n) {}

  int Inst(int i, int j) const { return inst[static_cast<size_t>(i) * nr + j]; }

  bool RightEdge(int p, int c) const {
    return p >= 0 && c >= 0 && right.edge[static_cast<size_t>(p) * nr + c];
  }

  // Total matched triples under the mapping (mapping[i] = right node or -1).
  int TotalScore(const std::vector<int>& mapping) const {
    int score = 0;
    for (int i = 0; i < nl; ++i) {
      if (mapping[i] >= 0) score += Inst(i, mapping[i]);
      for (int c : left.Children(i)) score += RightEdge(mapping[i], mapping[c]);
    }
    return score;
  }

  // Score delta from remapping node i from mapping[i] to j (j may be -1),
  // holding everything else fixed.
  int RemapGain(const std::vector<int>& mapping, int i, int j) const {
    const int old_j = mapping[i];
    if (old_j == j) return 0;
    int gain = 0;
    if (j >= 0) gain += Inst(i, j);
    if (old_j >= 0) gain -= Inst(i, old_j);
    for (int c : left.Children(i)) {
      gain += RightEdge(j, mapping[c]) - RightEdge(old_j, mapping[c]);
    }
    for (int p : left.Parents(i)) {
      gain += RightEdge(mapping[p], j) - RightEdge(mapping[p], old_j);
    }
    return gain;
  }

  // RemapGain(mapping, i, j) for every j at once: gains[0] for j = -1 and
  // gains[1 + j] for each right node j. One pass over i's instance row, the
  // right children rows of its parents' images and the right parents
  // columns of its children's images.
  void RemapGainRow(const std::vector<int>& mapping, int i, int* gains) const {
    const int old_j = mapping[i];
    int current = 0;  // triples i contributes under its current image
    if (old_j >= 0) {
      current = Inst(i, old_j);
      for (int c : left.Children(i)) current += RightEdge(old_j, mapping[c]);
      for (int p : left.Parents(i)) current += RightEdge(mapping[p], old_j);
    }
    gains[0] = -current;
    int* __restrict row = gains + 1;
    const int8_t* __restrict inst_row = inst + static_cast<size_t>(i) * nr;
    for (int j = 0; j < nr; ++j) row[j] = inst_row[j] - current;
    for (int p : left.Parents(i)) {
      if (mapping[p] < 0) continue;
      const uint8_t* __restrict children =
          right.edge.data() + static_cast<size_t>(mapping[p]) * nr;
      for (int j = 0; j < nr; ++j) row[j] += children[j];
    }
    for (int c : left.Children(i)) {
      if (mapping[c] < 0) continue;
      const uint8_t* __restrict parents =
          right.edge_t.data() + static_cast<size_t>(mapping[c]) * nr;
      for (int j = 0; j < nr; ++j) row[j] += parents[j];
    }
  }
};

// Per-thread tables and climb buffers, reused across pairs and climbs.
struct Workspace {
  PlanTables left, right;
  std::vector<int8_t> inst;    // left x right
  std::vector<int8_t> inst_t;  // right x left
  std::vector<int> mapping;
  std::vector<int> gains;  // nl rows of RemapGainRow
  std::vector<uint8_t> right_used;
  std::vector<uint8_t> neighbour;

  void Build(const FlatPlan& l, const FlatPlan& r) {
    left.Build(l);
    right.Build(r);
    const int nl = left.n, nr = right.n;
    inst.resize(static_cast<size_t>(nl) * nr);
    inst_t.resize(static_cast<size_t>(nl) * nr);
    for (int i = 0; i < nl; ++i) {
      for (int j = 0; j < nr; ++j) {
        const int8_t m =
            static_cast<int8_t>(InstanceMatches(l.types[i], r.types[j]));
        inst[static_cast<size_t>(i) * nr + j] = m;
        inst_t[static_cast<size_t>(j) * nl + i] = m;
      }
    }
  }
};

Workspace& ThreadWorkspace() {
  thread_local Workspace workspace;
  return workspace;
}

SmatchScore MakeScore(int matched, const FlatPlan& left, const FlatPlan& right) {
  SmatchScore score;
  score.matched_triples = matched;
  score.triples_left = left.NumTriples();
  score.triples_right = right.NumTriples();
  score.precision =
      score.triples_left > 0
          ? static_cast<double>(matched) / score.triples_left
          : 0.0;
  score.recall = score.triples_right > 0
                     ? static_cast<double>(matched) / score.triples_right
                     : 0.0;
  score.f1 = (score.precision + score.recall) > 0
                 ? 2 * score.precision * score.recall /
                       (score.precision + score.recall)
                 : 0.0;
  return score;
}

// Greedy initial mapping: repeatedly assign the (i, j) pair with the highest
// instance-match count among unassigned nodes, ties broken by index. Match
// counts are 0..3 and only fall as nodes are taken, so this is one scan per
// count from 3 down: each unassigned i, in order, takes its first unused j
// of that count.
void GreedyInit(const Problem& prob, Workspace* ws) {
  std::vector<int>& mapping = ws->mapping;
  std::vector<uint8_t>& right_used = ws->right_used;
  mapping.assign(prob.nl, -1);
  right_used.assign(prob.nr, 0);
  int left_to_assign = std::min(prob.nl, prob.nr);
  for (int count = 3; count >= 0 && left_to_assign > 0; --count) {
    for (int i = 0; i < prob.nl && left_to_assign > 0; ++i) {
      if (mapping[i] >= 0) continue;
      for (int j = 0; j < prob.nr; ++j) {
        if (!right_used[j] && prob.Inst(i, j) == count) {
          mapping[i] = j;
          right_used[j] = 1;
          --left_to_assign;
          break;
        }
      }
    }
  }
}

void RandomInit(const Problem& prob, util::Rng* rng, Workspace* ws) {
  const std::vector<int> right_perm = rng->Permutation(prob.nr);
  ws->mapping.assign(prob.nl, -1);
  for (int i = 0; i < prob.nl && i < prob.nr; ++i) {
    ws->mapping[i] = right_perm[i];
  }
}

// Best-improvement hill climbing with remap and swap moves on ws->mapping.
// Each pass takes the first strictly best move in this order: remaps by i
// ascending, j = -1 first and then every unused j ascending; then swaps by
// i < i2.
int HillClimb(const Problem& prob, int max_passes, Workspace* ws) {
  const int nl = prob.nl, nr = prob.nr;
  const size_t stride = static_cast<size_t>(nr) + 1;
  std::vector<int>& m = ws->mapping;
  std::vector<uint8_t>& right_used = ws->right_used;
  right_used.assign(nr, 0);
  for (int j : m) {
    if (j >= 0) right_used[j] = 1;
  }
  ws->gains.resize(nl * stride);
  ws->neighbour.assign(nl, 0);
  int score = prob.TotalScore(m);
  for (int pass = 0; pass < max_passes; ++pass) {
    int best_gain = 0;
    int move_i = -1, move_j = -1, move_i2 = -1;  // remap or swap
    // Remap moves: i -> any unused j (or unmap).
    for (int i = 0; i < nl; ++i) {
      int* gains = ws->gains.data() + i * stride;
      prob.RemapGainRow(m, i, gains);
      if (gains[0] > best_gain) {
        best_gain = gains[0];
        move_i = i;
        move_j = -1;
      }
      for (int j = 0; j < nr; ++j) {
        if (!right_used[j] && gains[1 + j] > best_gain) {
          best_gain = gains[1 + j];
          move_i = i;
          move_j = j;
        }
      }
    }
    // Swap moves: exchange the images of i and i2. The gain is i's remap to
    // i2's image, then i2's remap to i's image with i already moved; that
    // second remap sees i's move only when i and i2 are adjacent.
    for (int i = 0; i < nl; ++i) {
      const int ji = m[i];
      const int* gains_i = ws->gains.data() + i * stride;
      for (int c : prob.left.Children(i)) ws->neighbour[c] = 1;
      for (int p : prob.left.Parents(i)) ws->neighbour[p] = 1;
      for (int i2 = i + 1; i2 < nl; ++i2) {
        const int ji2 = m[i2];
        if (ji == ji2) continue;  // both -1
        const int g1 = gains_i[1 + ji2];
        int g2;
        if (ws->neighbour[i2]) {
          m[i] = ji2;
          g2 = prob.RemapGain(m, i2, ji);
          m[i] = ji;
        } else {
          g2 = ws->gains[i2 * stride + 1 + ji];
        }
        if (g1 + g2 > best_gain) {
          best_gain = g1 + g2;
          move_i = i;
          move_i2 = i2;
          move_j = -2;
        }
      }
      for (int c : prob.left.Children(i)) ws->neighbour[c] = 0;
      for (int p : prob.left.Parents(i)) ws->neighbour[p] = 0;
    }
    if (best_gain <= 0) break;
    if (move_j == -2) {
      std::swap(m[move_i], m[move_i2]);
    } else {
      if (m[move_i] >= 0) right_used[m[move_i]] = 0;
      if (move_j >= 0) right_used[move_j] = 1;
      m[move_i] = move_j;
    }
    score += best_gain;
  }
  return score;
}

void FlattenInto(const plan::PlanNode& node, int parent, FlatPlan* out) {
  const int id = static_cast<int>(out->types.size());
  out->types.push_back(node.type());
  if (parent >= 0) out->edges.emplace_back(parent, id);
  for (const auto& child : node.children()) {
    FlattenInto(*child, id, out);
  }
}

// Exact search: branch over left nodes in order, assigning each to an unused
// right node or -1, with an admissible upper bound for pruning.
class ExactSearch {
 public:
  explicit ExactSearch(const Problem& prob) : prob_(prob) {
    nl_ = prob.nl;
    nr_ = prob.nr;
    mapping_.assign(nl_, -1);
    right_used_.assign(nr_, false);
    // Upper bound per left node: best instance match + out-degree + in-degree
    // (every incident edge could match at most once).
    ub_suffix_.assign(nl_ + 1, 0);
    for (int i = nl_ - 1; i >= 0; --i) {
      int best_inst = 0;
      for (int j = 0; j < nr_; ++j) {
        best_inst = std::max(best_inst, prob.Inst(i, j));
      }
      // Each left edge can match at most once; we attribute the edge to its
      // child node (the later preorder index), matching Dfs()'s accounting.
      int incoming = static_cast<int>(prob.left.Parents(i).size());
      ub_suffix_[i] = ub_suffix_[i + 1] + best_inst + incoming;
    }
  }

  int Run() {
    best_ = 0;
    Dfs(0, 0);
    return best_;
  }

 private:
  void Dfs(int i, int score) {
    if (score + ub_suffix_[i] <= best_) return;
    if (i == nl_) {
      best_ = std::max(best_, score);
      return;
    }
    for (int j = -1; j < nr_; ++j) {
      if (j >= 0 && right_used_[j]) continue;
      // Partial score gain: instance matches plus edges to already-assigned
      // neighbours (parents of i are always earlier in preorder; children are
      // later, counted when the child is assigned).
      int gain = j >= 0 ? prob_.Inst(i, j) : 0;
      for (int p : prob_.left.Parents(i)) {
        if (p < i && prob_.RightEdge(mapping_[p], j)) ++gain;
      }
      mapping_[i] = j;
      if (j >= 0) right_used_[j] = true;
      Dfs(i + 1, score + gain);
      if (j >= 0) right_used_[j] = false;
      mapping_[i] = -1;
    }
  }

  const Problem& prob_;
  int nl_ = 0, nr_ = 0;
  int best_ = 0;
  std::vector<int> mapping_;
  std::vector<bool> right_used_;
  std::vector<int> ub_suffix_;
};

}  // namespace

FlatPlan Flatten(const plan::PlanNode& root) {
  FlatPlan flat;
  FlattenInto(root, -1, &flat);
  return flat;
}

namespace {

int BestMatched(const Problem& prob, const SmatchOptions& options,
                Workspace* ws) {
  util::Rng rng(options.seed);
  int best = 0;
  for (int r = 0; r < std::max(1, options.restarts); ++r) {
    if (r == 0) {
      GreedyInit(prob, ws);
    } else {
      RandomInit(prob, &rng, ws);
    }
    best = std::max(best, HillClimb(prob, options.max_passes, ws));
  }
  return best;
}

}  // namespace

SmatchScore Score(const FlatPlan& left, const FlatPlan& right,
                  const SmatchOptions& options) {
  if (left.types.empty() || right.types.empty()) {
    return MakeScore(0, left, right);
  }
  Workspace& ws = ThreadWorkspace();
  ws.Build(left, right);
  // The optimal matched-triple count is symmetric in its arguments; hill
  // climbing is not, so run both orientations and keep the better matching.
  // The second orientation's tables are the first's, swapped and transposed.
  const Problem forward(ws.left, ws.right, ws.inst.data());
  const Problem backward(ws.right, ws.left, ws.inst_t.data());
  const int best = std::max(BestMatched(forward, options, &ws),
                            BestMatched(backward, options, &ws));
  return MakeScore(best, left, right);
}

SmatchScore Score(const plan::PlanNode& left, const plan::PlanNode& right,
                  const SmatchOptions& options) {
  return Score(Flatten(left), Flatten(right), options);
}

SmatchScore ScoreExact(const FlatPlan& left, const FlatPlan& right) {
  if (left.types.empty() || right.types.empty()) {
    return MakeScore(0, left, right);
  }
  Workspace& ws = ThreadWorkspace();
  ws.Build(left, right);
  const Problem prob(ws.left, ws.right, ws.inst.data());
  ExactSearch search(prob);
  return MakeScore(search.Run(), left, right);
}

SmatchScore ScoreExact(const plan::PlanNode& left,
                       const plan::PlanNode& right) {
  return ScoreExact(Flatten(left), Flatten(right));
}

}  // namespace qpe::smatch
