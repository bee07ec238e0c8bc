#include "plan/explain_parser.h"

#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "plan/taxonomy.h"

namespace qpe::plan {

namespace {

constexpr size_t npos = std::string::npos;
// Warning-log capacity; overflow is counted, not stored.
constexpr size_t kMaxWarnings = 64;

// --- Small line-scanner helpers -------------------------------------------

bool ConsumeLit(const std::string& line, size_t* pos, const char* lit) {
  const size_t len = std::char_traits<char>::length(lit);
  if (line.compare(*pos, len, lit) != 0) return false;
  *pos += len;
  return true;
}

bool ConsumeDouble(const std::string& line, size_t* pos, double* out) {
  if (*pos >= line.size()) return false;
  const char* start = line.c_str() + *pos;
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return false;
  *pos += static_cast<size_t>(end - start);
  *out = v;
  return true;
}

// Splits an operator display name into words, remembering each word's byte
// offset inside the name for column-accurate diagnostics.
struct NameWord {
  std::string text;
  size_t offset;
};

std::vector<NameWord> SplitName(const std::string& name) {
  std::vector<NameWord> words;
  size_t i = 0;
  while (i < name.size()) {
    while (i < name.size() && name[i] == ' ') ++i;
    const size_t begin = i;
    while (i < name.size() && name[i] != ' ') ++i;
    if (i > begin) words.push_back({name.substr(begin, i - begin), begin});
  }
  // PostgreSQL writes the IndexOnly sub-type as two words.
  for (size_t w = 0; w + 1 < words.size(); ++w) {
    if (words[w].text == "Index" && words[w + 1].text == "Only") {
      words[w].text = "IndexOnly";
      words.erase(words.begin() + static_cast<long>(w) + 1);
    }
  }
  return words;
}

SortMethod SortMethodFromName(const std::string& name) {
  if (name == "quicksort") return SortMethod::kQuicksort;
  if (name == "top-N heapsort") return SortMethod::kTopN;
  if (name == "external merge") return SortMethod::kExternalMerge;
  if (name == "external sort") return SortMethod::kExternalSort;
  return SortMethod::kUnknown;
}

// --- The parser -----------------------------------------------------------

class ExplainParser {
 public:
  ExplainParser(const std::string& text, const ParseExplainOptions& options)
      : text_(text),
        strict_(options.policy == IngestionPolicy::kStrict),
        result_{nullptr, {}, util::WarningLog(kMaxWarnings)} {}

  util::StatusOr<ParsedExplain> Run() {
    size_t start = 0;
    int line_no = 0;
    while (start <= text_.size() && error_.ok()) {
      size_t end = text_.find('\n', start);
      if (end == npos) end = text_.size();
      ++line_no;
      std::string line = text_.substr(start, end - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      ParseLine(line, line_no);
      if (end == text_.size()) break;
      start = end + 1;
    }
    if (!error_.ok()) return error_;
    if (result_.root == nullptr) {
      return util::InvalidArgumentError(
          "no plan node found in EXPLAIN text (" + std::to_string(line_no) +
          " line(s) scanned)");
    }
    if (strict_ && nodes_with_actuals_ > 0 && nodes_without_actuals_ > 0) {
      return util::InvalidArgumentError(
          "line " + std::to_string(first_missing_actuals_line_) +
          ": node without an actual clause in ANALYZE output");
    }
    // A uniformly estimate-only text is plain EXPLAIN, not a defect.
    if (nodes_with_actuals_ == 0) result_.stats.missing_actuals = 0;
    return std::move(result_);
  }

 private:
  // Records a defect: strict mode arms the error (first one wins and parsing
  // stops); lenient mode counts it and logs a line/column warning.
  void Defect(int line_no, size_t col, const std::string& message,
              int IngestionStats::* counter) {
    if (strict_) {
      if (error_.ok()) {
        error_ = util::InvalidArgumentError(
            "line " + std::to_string(line_no) + ", col " +
            std::to_string(col + 1) + ": " + message);
      }
      return;
    }
    if (counter != nullptr) ++(result_.stats.*counter);
    result_.warnings.Add("line " + std::to_string(line_no) + ", col " +
                         std::to_string(col + 1) + ": " + message);
  }

  void ParseLine(const std::string& line, int line_no) {
    size_t indent = 0;
    while (indent < line.size() && line[indent] == ' ') ++indent;
    if (indent == line.size()) return;  // blank line

    const bool has_arrow = line.compare(indent, 2, "->") == 0;
    const bool has_cost = line.find("  (cost=", indent) != npos;
    if (has_arrow) {
      size_t name_col = indent + 2;
      while (name_col < line.size() && line[name_col] == ' ') ++name_col;
      ParseNodeLine(line, line_no, name_col);
    } else if (has_cost) {
      ParseNodeLine(line, line_no, indent);
    } else if (result_.root == nullptr) {
      // psql banners ("QUERY PLAN", dashes) and other preamble.
      Defect(line_no, indent, "unrecognized line before the first plan node",
             &IngestionStats::unparsed_lines);
    } else {
      ParseDetailLine(line, line_no, indent);
    }
  }

  void ParseNodeLine(const std::string& line, int line_no, size_t name_col) {
    size_t name_end = line.find("  (cost=", name_col);
    const bool has_cost = name_end != npos;
    if (!has_cost) {
      name_end = line.size();
      Defect(line_no, name_col, "node line without cost estimates",
             &IngestionStats::unparsed_lines);
      if (strict_) return;
    }
    std::string name = line.substr(name_col, name_end - name_col);
    while (!name.empty() && name.back() == ' ') name.pop_back();

    // Strip "using <index>" and "on <relation>" suffixes off the name.
    std::string relation;
    const size_t on_pos = name.find(" on ");
    if (on_pos != npos) {
      relation = name.substr(on_pos + 4);
      const size_t space = relation.find(' ');
      if (space != npos) relation.resize(space);  // drop any alias
    }
    const size_t using_pos = name.find(" using ");
    const size_t cut = std::min(on_pos, using_pos);
    if (cut != npos) name.resize(cut);

    auto node = std::make_unique<PlanNode>(MapOperator(name, line_no, name_col));
    if (strict_ && !error_.ok()) return;
    if (!relation.empty()) node->AddRelation(std::move(relation));
    PlanProperties& p = node->props();

    size_t pos = name_end;
    if (has_cost) {
      if (!(ConsumeLit(line, &pos, "  (cost=") &&
            ConsumeDouble(line, &pos, &p.startup_cost) &&
            ConsumeLit(line, &pos, "..") &&
            ConsumeDouble(line, &pos, &p.total_cost) &&
            ConsumeLit(line, &pos, " rows=") &&
            ConsumeDouble(line, &pos, &p.plan_rows) &&
            ConsumeLit(line, &pos, " width=") &&
            ConsumeDouble(line, &pos, &p.plan_width) &&
            ConsumeLit(line, &pos, ")"))) {
        Defect(line_no, pos, "malformed cost clause",
               &IngestionStats::unparsed_lines);
        if (strict_) return;
        pos = SkipClause(line, pos);
      }
    }

    // Optional actual clause: "(actual time=a..b rows=r loops=l)" or the
    // TIMING OFF variant "(actual rows=r loops=l)".
    bool has_actuals = false;
    const size_t actual_pos = line.find("(actual", pos);
    if (actual_pos != npos) {
      size_t a = actual_pos + 7;  // past "(actual"
      bool ok = true;
      if (ConsumeLit(line, &a, " time=")) {
        ok = ConsumeDouble(line, &a, &p.actual_startup_time_ms) &&
             ConsumeLit(line, &a, "..") &&
             ConsumeDouble(line, &a, &p.actual_total_time_ms);
      }
      ok = ok && ConsumeLit(line, &a, " rows=") &&
           ConsumeDouble(line, &a, &p.actual_rows) &&
           ConsumeLit(line, &a, " loops=") &&
           ConsumeDouble(line, &a, &p.actual_loops) &&
           ConsumeLit(line, &a, ")");
      if (ok) {
        has_actuals = true;
      } else {
        Defect(line_no, a, "malformed actual clause",
               &IngestionStats::unparsed_lines);
        if (strict_) return;
      }
    }
    if (!has_actuals) {
      // Estimate-only degradation: the encoders see the optimizer estimate
      // instead of a spurious zero. Whether this is a defect depends on the
      // rest of the text (plain EXPLAIN vs mixed output); see Run().
      p.actual_loops = 1;
      p.actual_rows = p.plan_rows;
      ++result_.stats.missing_actuals;
      ++nodes_without_actuals_;
      if (first_missing_actuals_line_ == 0) {
        first_missing_actuals_line_ = line_no;
      }
    } else {
      ++nodes_with_actuals_;
    }

    AttachNode(std::move(node), name_col, line_no);
  }

  OperatorType MapOperator(const std::string& name, int line_no,
                           size_t name_col) {
    const Taxonomy& tax = Taxonomy::Get();
    const std::vector<NameWord> words = SplitName(name);
    if (words.empty()) {
      Defect(line_no, name_col, "empty operator name",
             &IngestionStats::unknown_operators);
      return OperatorType::Unknown();
    }
    // Display order is "<L3> <L2> <L1>" with NIL levels omitted, so assign
    // from the back; a word that only fits the other level slides over.
    OperatorType type;
    auto unknown_word = [&](const NameWord& word, const char* level) {
      Defect(line_no, name_col + word.offset,
             std::string("unknown ") + level + " operator word '" + word.text +
                 "'",
             &IngestionStats::unknown_operators);
    };
    const int l1 = tax.FindLevel1(words.back().text);
    if (l1 < 0) unknown_word(words.back(), "level-1");
    type.level1 = static_cast<uint8_t>(l1 < 0 ? tax.unknown1() : l1);
    bool have2 = false;
    bool have3 = false;
    for (size_t w = words.size() - 1; w-- > 0;) {
      const NameWord& word = words[w];
      const int id2 = tax.FindLevel2(word.text);
      const int id3 = tax.FindLevel3(word.text);
      if (!have2 && id2 >= 0) {
        type.level2 = static_cast<uint8_t>(id2);
        have2 = true;
      } else if (!have3 && id3 >= 0) {
        type.level3 = static_cast<uint8_t>(id3);
        have3 = true;
      } else if (!have2) {
        unknown_word(word, "level-2");
        type.level2 = static_cast<uint8_t>(tax.unknown2());
        have2 = true;
      } else if (!have3) {
        unknown_word(word, "level-3");
        type.level3 = static_cast<uint8_t>(tax.unknown3());
        have3 = true;
      } else {
        unknown_word(word, "extra");
      }
    }
    return type;
  }

  void AttachNode(std::unique_ptr<PlanNode> node, size_t name_col,
                  int line_no) {
    ++result_.stats.nodes;
    if (result_.root == nullptr) {
      result_.root = std::move(node);
      stack_.assign(1, {name_col, result_.root.get()});
      return;
    }
    while (stack_.size() > 1 && stack_.back().first >= name_col) {
      stack_.pop_back();
    }
    PlanNode* parent = stack_.back().second;
    if (stack_.size() == 1 && name_col <= stack_.front().first) {
      // A second root-level tree; lenient ingestion grafts it under the
      // first root so no parsed structure is silently dropped.
      Defect(line_no, name_col, "second root-level node",
             &IngestionStats::orphan_nodes);
      if (strict_) return;
    }
    PlanNode* added = parent->AddChild(std::move(node));
    stack_.emplace_back(name_col, added);
  }

  void ParseDetailLine(const std::string& line, int line_no, size_t indent) {
    if (stack_.empty()) {
      Defect(line_no, indent, "detail line before any plan node",
             &IngestionStats::unparsed_lines);
      return;
    }
    PlanProperties& p = stack_.back().second->props();
    size_t pos = indent;

    if (ConsumeLit(line, &pos, "Sort Method: ")) {
      const size_t method_end = line.find("  Memory: ", pos);
      if (method_end == npos) {
        Defect(line_no, pos, "malformed sort-method line",
               &IngestionStats::unparsed_lines);
        return;
      }
      const std::string method = line.substr(pos, method_end - pos);
      p.sort_method = SortMethodFromName(method);
      if (p.sort_method == SortMethod::kUnknown) {
        Defect(line_no, pos, "unknown sort method '" + method + "'",
               &IngestionStats::invalid_enums);
        if (strict_) return;
      }
      pos = method_end;
      if (!(ConsumeLit(line, &pos, "  Memory: ") &&
            ConsumeDouble(line, &pos, &p.peak_memory_kb) &&
            ConsumeLit(line, &pos, "kB"))) {
        Defect(line_no, pos, "malformed sort-memory field",
               &IngestionStats::unparsed_lines);
        return;
      }
      if (ConsumeLit(line, &pos, "  Disk: ")) {
        p.sort_space_on_disk = true;
        if (!(ConsumeDouble(line, &pos, &p.sort_space_used_kb) &&
              ConsumeLit(line, &pos, "kB"))) {
          Defect(line_no, pos, "malformed sort-disk field",
                 &IngestionStats::unparsed_lines);
        }
      }
      return;
    }

    if (ConsumeLit(line, &pos, "Hash Buckets: ")) {
      if (!(ConsumeDouble(line, &pos, &p.hash_buckets) &&
            ConsumeLit(line, &pos, "  Batches: ") &&
            ConsumeDouble(line, &pos, &p.hash_batches) &&
            ConsumeLit(line, &pos, "  Peak Memory: ") &&
            ConsumeDouble(line, &pos, &p.peak_memory_kb) &&
            ConsumeLit(line, &pos, "kB"))) {
        Defect(line_no, pos, "malformed hash detail line",
               &IngestionStats::unparsed_lines);
      }
      return;
    }

    if (ConsumeLit(line, &pos, "Buffers: shared hit=")) {
      bool ok = ConsumeDouble(line, &pos, &p.shared_hit_blocks) &&
                ConsumeLit(line, &pos, " read=") &&
                ConsumeDouble(line, &pos, &p.shared_read_blocks);
      if (ok && ConsumeLit(line, &pos, " dirtied=")) {
        ok = ConsumeDouble(line, &pos, &p.shared_dirtied_blocks);
      }
      if (ok && ConsumeLit(line, &pos, " written=")) {
        ok = ConsumeDouble(line, &pos, &p.shared_written_blocks);
      }
      if (ok && ConsumeLit(line, &pos, ", temp read=")) {
        ok = ConsumeDouble(line, &pos, &p.temp_read_blocks) &&
             ConsumeLit(line, &pos, " written=") &&
             ConsumeDouble(line, &pos, &p.temp_written_blocks);
      }
      if (!ok) {
        Defect(line_no, pos, "malformed buffers line",
               &IngestionStats::unparsed_lines);
      }
      return;
    }

    if (ConsumeLit(line, &pos, "Rows Removed by Filter: ")) {
      p.has_filter = true;
      if (!ConsumeDouble(line, &pos, &p.rows_removed_by_filter)) {
        Defect(line_no, pos, "malformed rows-removed count",
               &IngestionStats::unparsed_lines);
      }
      return;
    }

    if (ConsumeLit(line, &pos, "Rows Removed by Join Filter: ")) {
      if (!ConsumeDouble(line, &pos, &p.rows_removed_by_join_filter)) {
        Defect(line_no, pos, "malformed rows-removed count",
               &IngestionStats::unparsed_lines);
      }
      return;
    }

    if (ConsumeLit(line, &pos, "Index Cond: ")) {
      p.has_index_condition = true;
      return;
    }
    if (ConsumeLit(line, &pos, "Recheck Cond: ")) {
      p.has_recheck_condition = true;
      return;
    }
    if (ConsumeLit(line, &pos, "Filter: ")) {
      p.has_filter = true;
      return;
    }
    if (ConsumeLit(line, &pos, "Sort Key: ")) {
      // One key per comma-separated expression.
      double keys = 1;
      for (size_t i = pos; i < line.size(); ++i) keys += line[i] == ',';
      p.num_sort_keys = keys;
      return;
    }
    if (ConsumeLit(line, &pos, "Heap Blocks: exact=")) {
      if (!ConsumeDouble(line, &pos, &p.heap_blocks)) {
        Defect(line_no, pos, "malformed heap-blocks count",
               &IngestionStats::unparsed_lines);
      }
      return;
    }

    Defect(line_no, indent,
           "unrecognized detail line '" +
               line.substr(indent, std::min<size_t>(40, line.size() - indent)) +
               "'",
           &IngestionStats::unparsed_lines);
  }

  // Lenient recovery for a malformed parenthesized clause: skip past its
  // closing paren (or to end of line).
  static size_t SkipClause(const std::string& line, size_t pos) {
    const size_t close = line.find(')', pos);
    return close == npos ? line.size() : close + 1;
  }

  const std::string& text_;
  const bool strict_;
  ParsedExplain result_;
  util::Status error_;
  std::vector<std::pair<size_t, PlanNode*>> stack_;  // (name col, node)
  int nodes_with_actuals_ = 0;
  int nodes_without_actuals_ = 0;
  int first_missing_actuals_line_ = 0;
};

}  // namespace

util::StatusOr<ParsedExplain> ParseExplain(const std::string& text,
                                           const ParseExplainOptions& options) {
  return ExplainParser(text, options).Run();
}

}  // namespace qpe::plan
