#include "plan/serialize.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string_view>
#include <system_error>
#include <unordered_map>
#include <vector>

namespace qpe::plan {

namespace {

// Property table: name -> accessor pair, covering every numeric/categorical
// field of PlanProperties. Bools and enums are serialized as integers.
struct PropField {
  const char* name;
  double (*get)(const PlanProperties&);
  void (*set)(PlanProperties&, double);
};

#define QPE_NUM_FIELD(field)                                      \
  {#field,                                                        \
   [](const PlanProperties& p) {                                  \
     return static_cast<double>(p.field);                         \
   },                                                             \
   [](PlanProperties& p, double v) {                              \
     p.field = static_cast<decltype(p.field)>(v);                 \
   }}
#define QPE_BOOL_FIELD(field)                                     \
  {#field,                                                        \
   [](const PlanProperties& p) { return p.field ? 1.0 : 0.0; },   \
   [](PlanProperties& p, double v) { p.field = v != 0.0; }}
#define QPE_ENUM_FIELD(field, Enum)                               \
  {#field,                                                        \
   [](const PlanProperties& p) {                                  \
     return static_cast<double>(static_cast<int>(p.field));       \
   },                                                             \
   [](PlanProperties& p, double v) {                              \
     p.field = static_cast<Enum>(static_cast<int>(v));            \
   }}

const std::vector<PropField>& PropFields() {
  static const std::vector<PropField>* const kFields =
      new std::vector<PropField>{
          QPE_NUM_FIELD(actual_loops),
          QPE_NUM_FIELD(actual_rows),
          QPE_NUM_FIELD(plan_rows),
          QPE_NUM_FIELD(plan_width),
          QPE_NUM_FIELD(shared_hit_blocks),
          QPE_NUM_FIELD(shared_read_blocks),
          QPE_NUM_FIELD(shared_dirtied_blocks),
          QPE_NUM_FIELD(shared_written_blocks),
          QPE_NUM_FIELD(local_hit_blocks),
          QPE_NUM_FIELD(local_read_blocks),
          QPE_NUM_FIELD(local_dirtied_blocks),
          QPE_NUM_FIELD(local_written_blocks),
          QPE_NUM_FIELD(temp_read_blocks),
          QPE_NUM_FIELD(temp_written_blocks),
          QPE_ENUM_FIELD(parent_relationship, ParentRelationship),
          QPE_NUM_FIELD(plan_buffers),
          QPE_NUM_FIELD(scan_direction),
          QPE_BOOL_FIELD(has_index_condition),
          QPE_BOOL_FIELD(has_recheck_condition),
          QPE_BOOL_FIELD(has_filter),
          QPE_NUM_FIELD(rows_removed_by_filter),
          QPE_NUM_FIELD(heap_blocks),
          QPE_BOOL_FIELD(parallel),
          QPE_ENUM_FIELD(join_kind, JoinKind),
          QPE_BOOL_FIELD(inner_unique),
          QPE_BOOL_FIELD(has_merge_condition),
          QPE_BOOL_FIELD(has_hash_condition),
          QPE_NUM_FIELD(rows_removed_by_join_filter),
          QPE_NUM_FIELD(hash_buckets),
          QPE_NUM_FIELD(hash_batches),
          QPE_ENUM_FIELD(sort_method, SortMethod),
          QPE_NUM_FIELD(sort_space_used_kb),
          QPE_BOOL_FIELD(sort_space_on_disk),
          QPE_NUM_FIELD(num_sort_keys),
          QPE_ENUM_FIELD(aggregate_strategy, AggregateStrategy),
          QPE_BOOL_FIELD(parallel_aware),
          QPE_BOOL_FIELD(partial_mode),
          QPE_NUM_FIELD(peak_memory_kb),
          QPE_NUM_FIELD(startup_cost),
          QPE_NUM_FIELD(total_cost),
          QPE_NUM_FIELD(actual_startup_time_ms),
          QPE_NUM_FIELD(actual_total_time_ms),
      };
  return *kFields;
}

#undef QPE_NUM_FIELD
#undef QPE_BOOL_FIELD
#undef QPE_ENUM_FIELD

void SerializeNode(const PlanNode& node, std::ostringstream& oss) {
  oss << std::setprecision(std::numeric_limits<double>::max_digits10);
  oss << "(op \"" << node.type().ToString(/*full=*/true) << "\"";
  for (const std::string& rel : node.relations()) {
    oss << " :rel " << rel;
  }
  static const PlanProperties kDefaults;
  for (const PropField& field : PropFields()) {
    const double v = field.get(node.props());
    if (v != field.get(kDefaults)) {
      oss << " :" << field.name << " " << v;
    }
  }
  for (const auto& child : node.children()) {
    oss << " ";
    SerializeNode(*child, oss);
  }
  oss << ")";
}

// Property keys -> fields, hashed once (the parser looks one up per value).
const std::unordered_map<std::string_view, const PropField*>& PropFieldIndex() {
  static const auto* const kIndex = [] {
    auto* index = new std::unordered_map<std::string_view, const PropField*>;
    for (const PropField& field : PropFields()) {
      index->emplace(field.name, &field);
    }
    return index;
  }();
  return *kIndex;
}

// The C locale's isspace (the process never installs another locale).
inline bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

inline bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Exactly strtod(word), without a heap copy. A word that std::from_chars
// consumes whole as a decimal (digits or '.' after an optional '-') has the
// same correctly rounded value under both (glibc's strtod rounds correctly
// too). Every other spelling (inf, nan(...), hex, a leading '+', trailing
// junk, the empty word) and any out-of-range result goes to strtod itself
// on a NUL-terminated copy.
double ParseValue(std::string_view word) {
  const char* begin = word.data();
  const char* end = begin + word.size();
  const char* mantissa = begin + (begin != end && *begin == '-');
  if (mantissa != end && (IsDigit(*mantissa) || *mantissa == '.')) {
    double v = 0;
    const std::from_chars_result r = std::from_chars(begin, end, v);
    if (r.ec == std::errc() && r.ptr == end) return v;
  }
  char buf[64];
  if (word.size() < sizeof(buf)) {
    std::memcpy(buf, word.data(), word.size());
    buf[word.size()] = '\0';
    return std::strtod(buf, nullptr);
  }
  return std::strtod(std::string(word).c_str(), nullptr);
}

// Tiny recursive-descent parser over the s-expression format. The first
// failure is recorded with its reason and byte offset (see error()), so
// callers can report *where* a corrupt plan text broke instead of just
// returning nullptr. Words are views into the text: nothing is copied
// except relation names, which the tree owns.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::unique_ptr<PlanNode> ParseNode(int depth = 1) {
    SkipWs();
    if (depth > kMaxPlanTextDepth) {
      return Fail("plan nesting deeper than " +
                  std::to_string(kMaxPlanTextDepth) + " levels");
    }
    if (!Consume('(')) return Fail("expected '(' opening a plan node");
    SkipWs();
    if (!ConsumeWord("op")) return Fail("expected 'op' keyword");
    SkipWs();
    auto node = std::make_unique<PlanNode>(OperatorType::Parse(ParseQuoted()));
    const auto& fields = PropFieldIndex();
    while (true) {
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated plan node (missing ')')");
      }
      if (text_[pos_] == ')') {
        ++pos_;
        return node;
      }
      if (text_[pos_] == '(') {
        auto child = ParseNode(depth + 1);
        if (!child) return nullptr;  // error already recorded
        node->AddChild(std::move(child));
        continue;
      }
      if (text_[pos_] == ':') {
        const size_t key_pos = pos_;
        ++pos_;
        const std::string_view key = ParseWord();
        SkipWs();
        if (key == "rel") {
          node->AddRelation(std::string(ParseWord()));
          continue;
        }
        const std::string_view value = ParseWord();
        const auto field = fields.find(key);
        if (field == fields.end()) {
          return FailAt("unknown property '" + std::string(key) + "'",
                        key_pos);
        }
        field->second->set(node->props(), ParseValue(value));
        continue;
      }
      return Fail(std::string("unexpected character '") + text_[pos_] + "'");
    }
  }

  // Records the first error (later ones are symptoms of the first).
  std::nullptr_t Fail(const std::string& reason) { return FailAt(reason, pos_); }
  std::nullptr_t FailAt(const std::string& reason, size_t pos) {
    if (error_.empty()) {
      error_ = reason + " at offset " + std::to_string(pos);
    }
    return nullptr;
  }
  const std::string& error() const { return error_; }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  }

  std::string_view ParseQuoted() {
    if (!Consume('"')) return {};
    const size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
    const std::string_view out = text_.substr(begin, pos_ - begin);
    Consume('"');
    return out;
  }

  std::string_view ParseWord() {
    const size_t begin = pos_;
    while (pos_ < text_.size() && !IsSpace(text_[pos_]) &&
           text_[pos_] != ')' && text_[pos_] != '(') {
      ++pos_;
    }
    return text_.substr(begin, pos_ - begin);
  }

  size_t pos() const { return pos_; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::string SerializePlanNode(const PlanNode& node) {
  std::ostringstream oss;
  SerializeNode(node, oss);
  return oss.str();
}

std::string SerializePlan(const Plan& plan) {
  std::ostringstream oss;
  oss << std::setprecision(std::numeric_limits<double>::max_digits10);
  oss << "(plan :benchmark " << (plan.benchmark.empty() ? "-" : plan.benchmark)
      << " :template " << (plan.template_id.empty() ? "-" : plan.template_id)
      << " :cluster " << plan.cluster_id << " ";
  if (plan.root) {
    SerializeNode(*plan.root, oss);
  }
  oss << ")";
  return oss.str();
}

util::StatusOr<std::unique_ptr<PlanNode>> ParsePlanNodeChecked(
    const std::string& text) {
  Parser parser(text);
  auto node = parser.ParseNode();
  if (!node) {
    return util::DataLossError("plan node parse failed: " + parser.error());
  }
  return node;
}

util::StatusOr<Plan> ParsePlanChecked(const std::string& text) {
  Parser parser(text);
  auto fail = [&parser](const std::string& reason) {
    return util::DataLossError("plan parse failed: " + reason + " at offset " +
                               std::to_string(parser.pos()));
  };
  parser.SkipWs();
  if (!parser.Consume('(')) return fail("expected '(' opening the plan");
  parser.SkipWs();
  if (!parser.ConsumeWord("plan")) return fail("expected 'plan' keyword");
  Plan plan;
  while (true) {
    parser.SkipWs();
    if (parser.pos() >= text.size()) {
      return fail("unterminated plan (missing ')')");
    }
    if (parser.Consume(')')) break;
    if (parser.Consume(':')) {
      const std::string_view key = parser.ParseWord();
      parser.SkipWs();
      const std::string value(parser.ParseWord());
      if (key == "benchmark") {
        plan.benchmark = value == "-" ? "" : value;
      } else if (key == "template") {
        plan.template_id = value == "-" ? "" : value;
      } else if (key == "cluster") {
        plan.cluster_id = std::atoi(value.c_str());
      } else {
        return fail("unknown plan attribute '" + std::string(key) + "'");
      }
      continue;
    }
    plan.root = parser.ParseNode();
    if (!plan.root) {
      return util::DataLossError("plan parse failed: " + parser.error());
    }
  }
  return plan;
}

std::unique_ptr<PlanNode> ParsePlanNode(const std::string& text) {
  Parser parser(text);
  return parser.ParseNode();
}

}  // namespace qpe::plan
