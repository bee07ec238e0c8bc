#ifndef QPEBENCH_STATS_H_
#define QPEBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace qpebench {

// Monotonic wall clock in seconds (steady_clock; arbitrary epoch).
double WallSeconds();
// CPU time of the whole process (every thread), in seconds.
double ProcessCpuSeconds();
// Peak resident set size of the process (VmHWM) in MiB; 0 if unknown.
double PeakRssMb();

// Nearest-rank percentile, p in (0, 100]: the value at 1-based rank
// ceil(p/100 * n) of the sorted sample. Returns 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Number of samples strictly beyond the nearest-rank p-th percentile of a
// sample of n values: n - ceil(p/100 * n).
size_t SamplesBeyond(size_t n, double p);

// The reporting rule for latency tails: the highest of the percentiles
// {50, 90, 99, 99.9, 99.99} that has at least 10 samples beyond it in a
// sample of n values, or 0 when even the median has fewer (n < 20).
double HighestSupportedPercentile(size_t n);

// Median over contiguous windows of `samples` (in arrival order) of each
// window's p-th percentile. The sample is cut into as many equal windows as
// keep at least `min_per_window` samples each, at most `max_windows`, and
// at least one; a stall confined to one window then cannot move the
// result.
double WindowedPercentile(const std::vector<double>& samples, double p,
                         size_t min_per_window, size_t max_windows);

// Splitmix64 finalizer: a cheap stateless hash used to derive per-request
// choices from (seed, index) so request i is the same in every run.
unsigned long long Mix64(unsigned long long x);

}  // namespace qpebench

#endif  // QPEBENCH_STATS_H_
