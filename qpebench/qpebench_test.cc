// Unit tests for the benchmark's own math: the percentile reporting rule at
// its sample-count edges, span self time over overlapping children, and
// the result line's shape. The smoke run of every workload lives in
// run.py --self-test.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "report.h"
#include "stats.h"
#include "trace.h"

namespace qpebench {
namespace {

std::vector<double> OneToN(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, NearestRankOnSmallSamples) {
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({7}, 50), 7);
  EXPECT_EQ(Percentile({7}, 99), 7);
  EXPECT_EQ(Percentile(OneToN(2), 50), 1);
  EXPECT_EQ(Percentile(OneToN(4), 50), 2);
  EXPECT_EQ(Percentile(OneToN(10), 90), 9);
  EXPECT_EQ(Percentile(OneToN(10), 100), 10);
}

TEST(PercentileTest, ExactRanksSurviveFloatingPoint) {
  // 0.99 * 1000 and 0.999 * 10000 are not exact in binary; the rank must
  // still be 990 and 9990, leaving exactly 10 samples beyond.
  EXPECT_EQ(Percentile(OneToN(1000), 99), 990);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(Percentile(OneToN(10000), 99.9), 9990);
  EXPECT_EQ(SamplesBeyond(10000, 99.9), 10u);
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
}

TEST(PercentileTest, HighestSupportedPercentileAtTheEdges) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0);   // median leaves 9 beyond
  EXPECT_EQ(HighestSupportedPercentile(20), 50);  // median leaves 10
  EXPECT_EQ(HighestSupportedPercentile(99), 50);  // p90 leaves 9
  EXPECT_EQ(HighestSupportedPercentile(100), 90);
  EXPECT_EQ(HighestSupportedPercentile(999), 90);  // p99 leaves 9
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(HighestSupportedPercentile(9999), 99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
}

TEST(PercentileTest, WindowedPercentileIgnoresOneStalledWindow) {
  // 3000 samples: three windows of 1000 (each supports p99). The middle
  // window holds a stall; the median of the window p99s ignores it.
  std::vector<double> samples;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 1000; ++i) {
      samples.push_back(w == 1 && i >= 900 ? 100.0 : 1.0 + i / 1000.0);
    }
  }
  EXPECT_DOUBLE_EQ(WindowedPercentile(samples, 99, 1000, 5), 1.989);
  // Pooled, the stall owns the tail.
  EXPECT_EQ(Percentile(samples, 99), 100.0);
  // Fewer samples than one window: a single window, the plain percentile.
  const std::vector<double> few = {3, 1, 2};
  EXPECT_EQ(WindowedPercentile(few, 50, 1000, 5), 2);
  EXPECT_EQ(WindowedPercentile({}, 50, 1000, 5), 0);
  // Never more than max_windows windows.
  EXPECT_DOUBLE_EQ(WindowedPercentile(samples, 50, 1, 1), Percentile(samples, 50));
}

Span MakeSpan(int parent, int64_t start, int64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // root [0, 100) with children [10, 40), [30, 60) (overlapping, as two
  // shards on two threads), [70, 80), and [95, 130) which runs past the
  // root and is clipped to [95, 100). Covered: [10,60) + [70,80) +
  // [95,100) = 65, so root self = 35.
  std::vector<Span> spans = {
      MakeSpan(-1, 0, 100), MakeSpan(0, 10, 40), MakeSpan(0, 30, 60),
      MakeSpan(0, 70, 80),  MakeSpan(0, 95, 130),
  };
  // A grandchild inside child 1 reduces child 1's self time only.
  spans.push_back(MakeSpan(1, 15, 25));
  const std::vector<int64_t> self = SelfTimesNs(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 35);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 35);
  EXPECT_EQ(self[5], 10);
}

TEST(SelfTimeTest, NestedAndIdenticalChildren) {
  // Two identical children and one inside them: union is [20, 50).
  const std::vector<Span> spans = {MakeSpan(-1, 0, 60), MakeSpan(0, 20, 50),
                                   MakeSpan(0, 20, 50), MakeSpan(0, 25, 30)};
  EXPECT_EQ(SelfTimesNs(spans)[0], 30);
}

TEST(SelfTimeTest, TotalsByNameSumSelfAndDuration) {
  const std::vector<std::string> names = {"root", "child"};
  std::vector<Span> spans = {MakeSpan(-1, 0, 4000), MakeSpan(0, 0, 1000),
                             MakeSpan(0, 500, 2000)};
  spans[1].name = spans[2].name = 1;
  const auto totals = TotalsByName(spans, names);
  EXPECT_EQ(totals.at("root").count, 1);
  EXPECT_DOUBLE_EQ(totals.at("root").self_us, 2.0);
  EXPECT_EQ(totals.at("child").count, 2);
  EXPECT_DOUBLE_EQ(totals.at("child").total_us, 2.5);
  EXPECT_DOUBLE_EQ(totals.at("child").MeanUs(), 1.25);
}

TEST(ReportTest, LastLineIsTheResultObjectWithEveryMetric) {
  Report report;
  report.Set("setup_s", 1.25);
  report.AddAttempted(3);
  report.Check(true, "fine");
  std::ostringstream out;
  ASSERT_TRUE(report.Print(/*trace=*/false, out));
  std::string text = out.str();
  ASSERT_FALSE(text.empty());
  text.pop_back();  // trailing newline
  const std::string last = text.substr(text.rfind('\n') + 1);
  EXPECT_EQ(last.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0", 0),
            0u);
  for (const MetricDef& def : EndToEndMetrics()) {
    std::string key = "\"";
    key.append(def.name).append("\": {\"value\": ");
    EXPECT_NE(last.find(key), std::string::npos) << def.name;
  }
  EXPECT_NE(last.find("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"),
            std::string::npos);
}

TEST(ReportTest, FailedCheckOrNonFiniteValueMakesTheRunIncorrect) {
  Report failed_check;
  failed_check.Check(false, "mismatch");
  std::ostringstream a;
  failed_check.Print(false, a);
  EXPECT_NE(a.str().find("{\"correct\": false"), std::string::npos);

  Report non_finite;
  non_finite.Set("cpu_us_per_plan", 0.0 / 0.0);
  std::ostringstream b;
  EXPECT_FALSE(non_finite.Print(false, b));
  EXPECT_NE(b.str().find("{\"correct\": false"), std::string::npos);
}

}  // namespace
}  // namespace qpebench
