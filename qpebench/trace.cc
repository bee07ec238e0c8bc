#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

namespace qpebench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int Tracer::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = ids_.try_emplace(name, static_cast<int>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

int Tracer::Begin(int name, int parent, int64_t request) {
  if (!enabled_) return -1;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, request, now, now});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int span) {
  if (!enabled_ || span < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].end_ns = now;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name\tstart_ns\tend_ns\tparent\trequest\n";
  for (const Span& s : spans_) {
    out << names_[static_cast<size_t>(s.name)] << '\t' << s.start_ns << '\t'
        << s.end_ns << '\t' << s.parent << '\t' << s.request << '\n';
  }
  return static_cast<bool>(out);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t begin = spans[i].start_ns;
    const int64_t end = spans[i].end_ns;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0, run_end = 0;
    bool open = false;
    for (const auto& [cs, ce] : kids) {
      const int64_t s = std::max(cs, begin);
      const int64_t e = std::min(ce, end);
      if (e <= s) continue;
      if (open && s <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = s;
      run_end = e;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = (end - begin) - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<Span>& spans, const std::vector<std::string>& names) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[names[static_cast<size_t>(spans[i].name)]];
    ++t.count;
    t.total_us += 1e-3 * static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    t.self_us += 1e-3 * static_cast<double>(self[i]);
  }
  return totals;
}

}  // namespace qpebench
