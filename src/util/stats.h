#ifndef QPE_UTIL_STATS_H_
#define QPE_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace qpe::util {

// Descriptive statistics and error metrics used by the training loops and
// the benchmark harnesses. All functions tolerate empty input by returning 0.

double Mean(const std::vector<double>& values);
double Median(std::vector<double> values);

// Linear-interpolated percentile; p in [0, 100].
double Percentile(std::vector<double> values, double p);

}  // namespace qpe::util

#endif  // QPE_UTIL_STATS_H_
