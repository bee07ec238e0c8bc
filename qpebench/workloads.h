#ifndef QPEBENCH_WORKLOADS_H_
#define QPEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "encoder/structure_encoder.h"
#include "report.h"

namespace qpebench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Tiny sizes for the self-test: every code path and metric, no steady
  // numbers.
  bool smoke = false;
  // Directory (relative to the working directory) for the daemon socket
  // and the span files.
  std::string work_dir = ".";
};

// Each returns 0 when the run completed (correct or not: the report says)
// and nonzero on a set-up error, with the reason on stderr.
int RunServe(const RunOptions& options, bool hot, Report* report);
int RunTrain(const RunOptions& options, Report* report);

// nn kernel replay: times the packed forward's kernels through
// nn::simd::K() at recorded batch shapes (per-sequence token counts of each
// packed micro-batch), on synthetic weights of the encoder's dimensions.
// FLOPs and bytes are computed from the shapes, not measured.
struct KernelReplay {
  int64_t batches = 0;  // batch replays timed (shapes x repeats)
  double gemm_us = 0;
  double attention_us = 0;
  double layer_norm_us = 0;
  double embed_gather_us = 0;
  double gemm_flops = 0;
  double gemm_bytes = 0;
  double attention_flops = 0;
};
KernelReplay ReplayKernels(const std::vector<std::vector<int>>& batch_lengths,
                           const qpe::encoder::StructureEncoderConfig& config,
                           int repeats);

// Fills every nn.* metric of the report from a replay (zeros if empty).
void ReportKernelReplay(const KernelReplay& replay, Report* report);

}  // namespace qpebench

#endif  // QPEBENCH_WORKLOADS_H_
