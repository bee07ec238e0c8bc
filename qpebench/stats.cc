#include "stats.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <string>

namespace qpebench {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

namespace {

// 1-based nearest rank ceil(p/100 * n). The product is formed in long
// double and nudged down before ceil so that exact ranks such as
// 0.99 * 1000 = 990 are not pushed to 991 by representation error.
size_t NearestRank(size_t n, double p) {
  const long double exact =
      static_cast<long double>(p) / 100.0L * static_cast<long double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9L));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  const size_t rank = NearestRank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - NearestRank(n, p);
}

double HighestSupportedPercentile(size_t n) {
  for (const double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0;
}

double WindowedPercentile(const std::vector<double>& samples, double p,
                          size_t min_per_window, size_t max_windows) {
  const size_t n = samples.size();
  const size_t windows = std::clamp<size_t>(
      min_per_window == 0 ? max_windows : n / min_per_window, 1,
      std::max<size_t>(max_windows, 1));
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = n * w / windows;
    const size_t end = n * (w + 1) / windows;
    per_window.push_back(Percentile(
        std::vector<double>(samples.begin() + begin, samples.begin() + end),
        p));
  }
  return Median(per_window);
}

unsigned long long Mix64(unsigned long long x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace qpebench
