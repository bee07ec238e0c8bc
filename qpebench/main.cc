// qpebench: runs one workload of the QPE benchmark.
//
//   qpebench --workload serve_hot|serve_cold|train_ppsr --seed N
//            --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
//
// Prints the run context, phase accounting, output checks and every metric
// of the mode by name with its unit, then one JSON object as the last line
// of standard output. Exit status: 0 when every output check passed, 1
// when one failed (the result is still printed), 2 on a usage or set-up
// error (nothing printed to standard output).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "nn/simd.h"
#include "report.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "qpebench: %s\nusage: qpebench --workload "
               "serve_hot|serve_cold|train_ppsr --seed N --seconds S "
               "--trace 0|1 [--smoke] [--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  qpebench::RunOptions options;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else {
      return Usage(("unknown or incomplete argument " + arg).c_str());
    }
  }
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");
  options.trace = trace == 1;
  if (!(options.seconds > 0 && options.seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }
  // Numbers from an unoptimized build are not recorded. The smoke mode
  // only exercises code paths, so it runs in any build.
  if (std::strcmp(QPEBENCH_BUILD_TYPE, "Release") != 0 && !options.smoke) {
    std::fprintf(stderr,
                 "qpebench: refusing to record a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 QPEBENCH_BUILD_TYPE);
    return 2;
  }

  qpebench::Report report;
  report.Context("workload", options.workload);
  report.Context("seed", std::to_string(options.seed));
  report.Context("seconds", options.seconds);
  report.Context("trace", options.trace ? "1" : "0");
  report.Context("build_type", QPEBENCH_BUILD_TYPE);
  report.Context("simd_level", qpe::nn::simd::LevelName(
                                   qpe::nn::simd::ActiveLevel()));
  report.Context("simd_hardware", qpe::nn::simd::LevelName(
                                      qpe::nn::simd::HardwareLevel()));
  report.Context("nproc", std::thread::hardware_concurrency());
  if (options.smoke) report.Context("smoke", "1 (tiny sizes, numbers not steady)");

  int rc = 0;
  if (options.workload == "serve_hot" || options.workload == "serve_cold") {
    rc = qpebench::RunServe(options, options.workload == "serve_hot", &report);
  } else if (options.workload == "train_ppsr") {
    rc = qpebench::RunTrain(options, &report);
  } else {
    return Usage("unknown workload");
  }
  if (rc != 0) return rc;
  const bool finite = report.Print(options.trace, std::cout);
  return report.correct() && finite ? 0 : 1;
}
