#ifndef QPE_PLAN_TAXONOMY_H_
#define QPE_PLAN_TAXONOMY_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace qpe::plan {

// Three-level operator sub-type taxonomy (paper Table 2). Every plan node's
// operator is written <Level1>-<Level2>-<Level3>, e.g. Bitmap Heap Scan is
// Scan-Heap-Bitmap and Left Merge Join is Join-Merge-Left. Missing levels
// use the NIL sub-type. Four special Level-1 tokens are added for the
// sequence model: BR_OPEN, BR_CLOSE (DFS-bracket linearization) and CLS, SEP
// (BERT-style sequence delimiters). Each level additionally reserves an
// UNKNOWN sub-type (its own embedding row) for operator names outside the
// taxonomy — foreign EXPLAIN plans routinely contain operators we have never
// seen, and they must map to a real token instead of an out-of-range id.
class Taxonomy {
 public:
  static const Taxonomy& Get();

  int Level1Count() const { return level1_.Count(); }
  int Level2Count() const { return level2_.Count(); }
  int Level3Count() const { return level3_.Count(); }

  // Lenient lookups: unknown names map to the reserved UNKNOWN sub-type of
  // the level, never to a sentinel a consumer could index with.
  int Level1Id(std::string_view name) const { return level1_.Id(name); }
  int Level2Id(std::string_view name) const { return level2_.Id(name); }
  int Level3Id(std::string_view name) const { return level3_.Id(name); }

  // Strict lookups: -1 if the name is not in the taxonomy. Use these when
  // the caller needs to *detect* a foreign name (ingestion diagnostics).
  int FindLevel1(std::string_view name) const { return level1_.Find(name); }
  int FindLevel2(std::string_view name) const { return level2_.Find(name); }
  int FindLevel3(std::string_view name) const { return level3_.Find(name); }

  // Bounds-safe: ids outside [0, count) name themselves "UNKNOWN" instead of
  // indexing out of the vocabulary (corrupt trees carry arbitrary bytes).
  const std::string& Level1Name(int id) const { return level1_.Name(id); }
  const std::string& Level2Name(int id) const { return level2_.Name(id); }
  const std::string& Level3Name(int id) const { return level3_.Name(id); }

  // Position of an id's name in the level's sorted name order (ids outside
  // the vocabulary rank as UNKNOWN, the name they print). Comparing the
  // three ranks lexicographically orders operators exactly as comparing
  // their full "L1-L2-L3" tokens would: see OperatorType::operator<.
  int Level1Rank(uint8_t id) const { return level1_.rank[id]; }
  int Level2Rank(uint8_t id) const { return level2_.rank[id]; }
  int Level3Rank(uint8_t id) const { return level3_.rank[id]; }

  // Ids of the special tokens (Level 1) and the per-level UNKNOWN tokens.
  int br_open() const { return br_open_; }
  int br_close() const { return br_close_; }
  int cls() const { return cls_; }
  int sep() const { return sep_; }
  int unknown1() const { return level1_.unknown; }
  int unknown2() const { return level2_.unknown; }
  int unknown3() const { return level3_.unknown; }

 private:
  // One level's vocabulary with its lookup tables, built once. Not
  // copyable: `ids` holds views into `names`.
  struct Level {
    explicit Level(std::vector<std::string> level_names);
    Level(const Level&) = delete;
    Level& operator=(const Level&) = delete;

    int Count() const { return static_cast<int>(names.size()); }
    int Find(std::string_view name) const;
    int Id(std::string_view name) const {
      const int id = Find(name);
      return id < 0 ? unknown : id;
    }
    const std::string& Name(int id) const {
      return names[id < 0 || id >= Count() ? unknown : id];
    }

    std::vector<std::string> names;
    std::unordered_map<std::string_view, int> ids;  // views into `names`
    std::array<uint8_t, 256> rank{};                // indexed by any uint8 id
    int unknown = -1;
  };

  Taxonomy();

  Level level1_;
  Level level2_;
  Level level3_;
  int br_open_ = -1;
  int br_close_ = -1;
  int cls_ = -1;
  int sep_ = -1;
};

// A concrete operator type: three sub-type ids into the taxonomy.
struct OperatorType {
  uint8_t level1 = 0;  // NIL
  uint8_t level2 = 0;
  uint8_t level3 = 0;

  OperatorType() = default;
  OperatorType(uint8_t l1, uint8_t l2, uint8_t l3)
      : level1(l1), level2(l2), level3(l3) {}

  // Builds from sub-type names; empty names map to NIL, non-empty names
  // outside the taxonomy map to the level's reserved UNKNOWN sub-type.
  static OperatorType FromNames(std::string_view l1, std::string_view l2,
                                std::string_view l3);

  // The fully-unknown operator token (UNKNOWN-NIL-NIL).
  static OperatorType Unknown();

  // Parses "Scan-Heap-Bitmap" / "Sort" / "Join-Merge-Left" style tokens.
  // Allocation-free: the plan-text parser calls it once per node.
  static OperatorType Parse(std::string_view token);

  // Canonical hyphenated token, trailing NILs omitted for readability only
  // when full == false (serialization always uses the full 3-part form).
  std::string ToString(bool full = false) const;

  friend bool operator==(const OperatorType&, const OperatorType&) = default;
  // Lexicographic order on the canonical full token (ToString(true)); used
  // to sort children so the tree linearization is deterministic. Computed
  // from the taxonomy's per-level rank tables, without building strings.
  bool operator<(const OperatorType& other) const;
};

// The five exclusive functional groups the paper uses for the performance
// encoder (§2.1): Scan, Join, Sort, Aggregate, Other.
enum class OperatorGroup : int {
  kScan = 0,
  kJoin,
  kSort,
  kAggregate,
  kOther,
};

inline constexpr int kNumOperatorGroups = 5;

// Maps an operator type to its functional group. Join-like operators
// (Join-*, Loop-Nested) map to kJoin; Aggregate/Group/GroupAggregate to
// kAggregate; Scan to kScan; Sort to kSort; everything else to kOther.
OperatorGroup GroupOf(const OperatorType& type);

const char* GroupName(OperatorGroup group);

}  // namespace qpe::plan

#endif  // QPE_PLAN_TAXONOMY_H_
