#ifndef QPEBENCH_REPORT_H_
#define QPEBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace qpebench {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric catalogue. BENCHMARK.json lists the same names and units; the
// run.py wrapper refuses a result whose metric set differs from it.
// End-to-end metrics are measured untraced (--trace 0); per-layer metrics
// come from the traced run (--trace 1). Every workload prints every metric
// of its mode: a layer a workload does not exercise reads 0. Latency
// percentiles are per-layer (no bound): on a shared host their run-to-run
// spread is wider than any bound the regression gate can use.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

// Collects one run's context stamp, metrics, operation counts and check
// outcomes, and prints them: human-readable lines first, then the single
// JSON result object as the last line of standard output.
class Report {
 public:
  void Context(const std::string& key, const std::string& value);
  void Context(const std::string& key, double value);

  // A catalogued metric (unit from the catalogue).
  void Set(const std::string& name, double value);
  // A metric shown in the human-readable lines only (e.g. the same figure
  // in another unit); never in the JSON object.
  void Extra(const std::string& name, double value, const std::string& unit);
  // Free-form line (phase accounting, sample counts, notes).
  void Note(const std::string& line);

  // Records an output check. A failed check makes the run incorrect.
  void Check(bool ok, const std::string& what);

  void AddAttempted(uint64_t n) { attempted_ += n; }
  void AddFailed(uint64_t n) { failed_ += n; }

  bool correct() const { return check_failures_ == 0; }

  // Prints everything; `trace` selects which catalogue goes into the JSON
  // object. Returns false if a catalogued metric is non-finite.
  bool Print(bool trace, std::ostream& out) const;

 private:
  std::vector<std::pair<std::string, std::string>> context_;
  std::map<std::string, double> metrics_;
  std::vector<std::string> lines_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int check_failures_ = 0;
};

// Shortest round-trip decimal form of a double ("%.17g").
std::string FormatNumber(double value);

}  // namespace qpebench

#endif  // QPEBENCH_REPORT_H_
