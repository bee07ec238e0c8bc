#ifndef QPE_DRIFT_ADAPTATION_H_
#define QPE_DRIFT_ADAPTATION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "encoder/structure_encoder.h"
#include "plan/plan_node.h"
#include "util/status.h"

namespace qpe::drift {

// Crash-safe incremental fine-tuning on a drifted slice. One adaptation
// round lives entirely inside a state directory; every file in it is
// written through util::WriteFileAtomic (util/durable_file.h):
//
//   slice.qpsl    — the drifted slice (framed "QPSL": u32 count, then
//                   count x { u32 length | plan text })
//   base.qpe      — encoder weights at adaptation start
//   manifest.qpam — COMMIT POINT (framed "QPAM"): its atomic rename
//                   declares "an adaptation is in progress" (written after
//                   slice+base, so a manifest always references consistent
//                   inputs)
//   ckpt.qpck     — TrainPpsr's crash-safe training checkpoint (per epoch)
//   adapted.qpe   — the fine-tuned weights (written on completion,
//                   *before* the manifest is removed)
//
// The slice and manifest use fault sites "adapt.*", the weight files
// "module.save.*", the checkpoint "checkpoint.*".
//
// A SIGKILL anywhere leaves one of two worlds: no manifest (nothing
// committed, or the round completed — adapted.qpe tells which), or a
// manifest plus consistent slice/base/checkpoint from which RunAdaptation
// resumes bit-exactly (the checkpoint machinery's existing contract). The
// pair construction is a pure function of (persisted slice, seed), so a
// resumed run and an uninterrupted run finish with identical weights.

struct AdaptationConfig {
  std::string dir;  // state directory; created if missing
  int epochs = 6;
  int pairs = 48;       // PPSR pairs built from the slice
  int batch_size = 8;
  float lr = 3e-4f;
  uint64_t seed = 41;
  // Fraction of pairs built as (plan, mutation-of-plan) for high-Smatch
  // coverage; the rest pair random slice members.
  double related_fraction = 0.5;
  // Cooperative cancellation (daemon drain): checked between batches; an
  // aborted round keeps its manifest and checkpoint so the next call (or
  // the next daemon start) resumes.
  const std::atomic<bool>* abort = nullptr;
};

struct AdaptationResult {
  // The fine-tuned encoder; null iff the round was aborted mid-training.
  std::unique_ptr<encoder::TransformerPlanEncoder> encoder;
  // The slice the round actually trained on (parsed from the persisted
  // file — on resume this is the original round's slice, not the caller's).
  std::vector<std::unique_ptr<plan::PlanNode>> slice_plans;
  bool aborted = false;
  bool resumed = false;           // picked up a pending manifest
  int64_t resumed_from_epoch = 0;
  double final_loss = 0;
};

// Artifact paths inside the state directory (exposed for tests/tools).
std::string AdaptationSlicePath(const std::string& dir);
std::string AdaptationBaseWeightsPath(const std::string& dir);
std::string AdaptationManifestPath(const std::string& dir);
std::string AdaptationCheckpointPath(const std::string& dir);
std::string AdaptedWeightsPath(const std::string& dir);

// True iff a manifest is present: the daemon died mid-ADAPTING and must
// re-enter it on start.
bool AdaptationPending(const std::string& dir);
// True iff a completed round's weights are present (and no manifest).
bool AdaptedWeightsPresent(const std::string& dir);
// Removes every artifact of the directory (abandon a round).
void ClearAdaptation(const std::string& dir);

// Runs one adaptation round, or resumes the pending one if a manifest
// exists (in which case `slice` is ignored in favour of the persisted
// slice). `base` supplies the architecture and — for a fresh round — the
// starting weights. Returns the refreshed encoder on completion; the
// caller swaps it into serving and rebaselines the sentinel.
util::StatusOr<AdaptationResult> RunAdaptation(
    const encoder::TransformerPlanEncoder& base,
    const std::vector<std::string>& slice, const AdaptationConfig& config);

// Loads a completed round's weights into a fresh encoder of the given
// architecture (daemon start with adapted.qpe present, no manifest).
util::StatusOr<std::unique_ptr<encoder::TransformerPlanEncoder>>
LoadAdaptedEncoder(const std::string& dir,
                   const encoder::StructureEncoderConfig& config);

}  // namespace qpe::drift

#endif  // QPE_DRIFT_ADAPTATION_H_
