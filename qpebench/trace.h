#ifndef QPEBENCH_TRACE_H_
#define QPEBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace qpebench {

// One timed interval around a call into a library layer. Spans of one
// request share `request`; `parent` is the index of the enclosing span
// (-1 for a root). Times are steady-clock nanoseconds.
struct Span {
  int name = 0;
  int parent = -1;
  int64_t request = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// In-memory span recorder for the traced run. Begin/End are safe to call
// from several threads (the training workload records forward spans on
// pool threads); one mutex guards the span vector. A disabled tracer
// records nothing and Begin returns -1, so untraced code paths pay one
// branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Stable id for a span name; call during set-up, not per span.
  int Intern(const std::string& name);

  int Begin(int name, int parent, int64_t request);
  void End(int span);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  void Clear() { spans_.clear(); }

  // Writes every span as a tab-separated line
  //   name  start_ns  end_ns  parent  request
  // after a header line. Returns false if the file cannot be written.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
};

// RAII span; a no-op when `tracer` is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, int name, int parent, int64_t request)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// Self time of every span: its duration minus the part of its interval
// covered by the union of its children's intervals (clipped to the
// parent). Overlapping children — shards running concurrently on pool
// threads — are counted once. Result i belongs to spans[i].
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

// Per-name totals over a span set.
struct SpanTotals {
  int64_t count = 0;
  double total_us = 0;  // summed durations
  double self_us = 0;   // summed self times
  double MeanUs() const { return count == 0 ? 0 : total_us / count; }
};
std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<Span>& spans, const std::vector<std::string>& names);

}  // namespace qpebench

#endif  // QPEBENCH_TRACE_H_
