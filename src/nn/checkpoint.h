#ifndef QPE_NN_CHECKPOINT_H_
#define QPE_NN_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "nn/module.h"
#include "nn/optimizer.h"
#include "util/rng.h"
#include "util/status.h"

namespace qpe::nn {

// Crash-safe training checkpoints. A checkpoint captures everything a
// training loop needs to continue bit-exactly after an interruption:
// module parameters, optimizer moments and step counters, the training
// loop's RNG stream (including the Box-Muller cache), and loop progress
// counters. The file is a framed, crash-safe util/durable_file.h artifact
// (magic "QPEC", version 1; fault sites "checkpoint.*") whose payload is
//
//   training state | rng state | module section | optimizer state
//
// Loads are transactional: the header, CRC, and every staged tensor/buffer
// are validated before *anything* is committed, so a corrupt or mismatched
// checkpoint leaves the in-memory model and optimizer untouched.

// Checkpointing for nn::RunTrainLoop (nn/train_loop.h); an empty path (the
// default) disables it.
struct CheckpointConfig {
  std::string path;        // checkpoint file; "" => no checkpointing
  int interval_epochs = 1; // save every N completed epochs (and at the end)
  // Load `path` before training if it exists; a missing file starts from
  // scratch, any other load error aborts the run (surfaced via the loop's
  // stats / status output).
  bool resume = true;
};

// Loop progress stored alongside the weights. `next_epoch` is the first
// epoch the resumed run should execute; the early-stopping trackers and
// loss-spike counters carry over so resumed runs converge identically.
struct TrainingState {
  int64_t next_epoch = 0;
  int64_t global_step = 0;
  int64_t skipped_batches = 0;   // cumulative loss-spike skips
  int64_t nonfinite_losses = 0;  // cumulative NaN/Inf losses observed
  double best_val = 1e18;        // early-stopping: best validation metric
  int64_t best_epoch = -1;       // ... and the epoch it occurred
  util::RngState rng;            // the loop's data-order/dropout stream
};

util::Status SaveTrainingCheckpoint(const std::string& path,
                                    const Module& module,
                                    const Optimizer& optimizer,
                                    const TrainingState& state);

// Restores module + optimizer + state from `path`. On any error (missing
// file, truncation, CRC mismatch, version or shape mismatch) returns a
// descriptive Status (the util::ReadFramedFile error contract for the
// frame) and mutates nothing.
util::Status LoadTrainingCheckpoint(const std::string& path, Module* module,
                                    Optimizer* optimizer,
                                    TrainingState* state);

}  // namespace qpe::nn

#endif  // QPE_NN_CHECKPOINT_H_
