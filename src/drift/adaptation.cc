#include "drift/adaptation.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include <sys/stat.h>

#include "data/datasets.h"
#include "data/plan_corpus.h"
#include "encoder/ppsr.h"
#include "nn/checkpoint.h"
#include "nn/serialize.h"
#include "plan/serialize.h"
#include "serve/warm_state.h"
#include "smatch/smatch.h"
#include "util/bytes.h"
#include "util/durable_file.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qpe::drift {

namespace {

constexpr uint32_t kSliceMagic = 0x4C535051;     // "QPSL"
constexpr uint32_t kManifestMagic = 0x4D415051;  // "QPAM"
constexpr uint32_t kBlobVersion = 1;
// Fault-site prefix of the slice and manifest (util/durable_file.h).
constexpr char kSite[] = "adapt";

// The manifest freezes every input of the round so a resumed run replays
// the original configuration even if the daemon restarted with new flags.
struct Manifest {
  uint64_t base_fingerprint = 0;
  uint64_t seed = 0;
  uint32_t epochs = 0;
  uint32_t pairs = 0;
  uint32_t batch_size = 0;
  float lr = 0;
  double related_fraction = 0;
};

util::Status SaveManifest(const std::string& dir, const Manifest& manifest) {
  std::string payload;
  util::PutU64(&payload, manifest.base_fingerprint);
  util::PutU64(&payload, manifest.seed);
  util::PutU32(&payload, manifest.epochs);
  util::PutU32(&payload, manifest.pairs);
  util::PutU32(&payload, manifest.batch_size);
  util::PutF32(&payload, manifest.lr);
  util::PutF64(&payload, manifest.related_fraction);
  return util::WriteFramedFileAtomic(AdaptationManifestPath(dir),
                                     kManifestMagic, kBlobVersion, payload,
                                     kSite);
}

util::StatusOr<Manifest> LoadManifest(const std::string& dir) {
  util::StatusOr<std::string> payload =
      util::ReadFramedFile(AdaptationManifestPath(dir), kManifestMagic,
                           kBlobVersion, "adaptation manifest", kSite);
  if (!payload.ok()) return payload.status();
  Manifest manifest;
  util::PayloadReader reader(*payload, "adaptation manifest");
  util::Status s;
  if (s = reader.U64(&manifest.base_fingerprint, "base fingerprint"); !s.ok())
    return s;
  if (s = reader.U64(&manifest.seed, "seed"); !s.ok()) return s;
  if (s = reader.U32(&manifest.epochs, "epochs"); !s.ok()) return s;
  if (s = reader.U32(&manifest.pairs, "pairs"); !s.ok()) return s;
  if (s = reader.U32(&manifest.batch_size, "batch size"); !s.ok()) return s;
  if (s = reader.F32(&manifest.lr, "lr"); !s.ok()) return s;
  if (s = reader.F64(&manifest.related_fraction, "related fraction");
      !s.ok())
    return s;
  if (s = reader.Finish("related fraction"); !s.ok()) return s;
  return manifest;
}

util::Status SaveSlice(const std::string& dir,
                       const std::vector<std::string>& slice) {
  std::string payload;
  util::PutU32(&payload, static_cast<uint32_t>(slice.size()));
  for (const std::string& text : slice) util::PutString(&payload, text);
  return util::WriteFramedFileAtomic(AdaptationSlicePath(dir), kSliceMagic,
                                     kBlobVersion, payload, kSite);
}

util::StatusOr<std::vector<std::string>> LoadSlice(const std::string& dir) {
  util::StatusOr<std::string> payload =
      util::ReadFramedFile(AdaptationSlicePath(dir), kSliceMagic, kBlobVersion,
                           "adaptation slice", kSite);
  if (!payload.ok()) return payload.status();
  util::PayloadReader reader(*payload, "adaptation slice");
  uint32_t count = 0;
  if (util::Status s = reader.U32(&count, "plan count"); !s.ok()) return s;
  std::vector<std::string> slice;
  for (uint32_t i = 0; i < count; ++i) {
    std::string text;
    if (util::Status s = reader.Str(&text, "plan text"); !s.ok()) return s;
    slice.push_back(std::move(text));
  }
  if (util::Status s = reader.Finish("the last plan"); !s.ok()) return s;
  return slice;
}

// Deterministic PPSR pairs over the slice: a pure function of (plans,
// manifest) — the heart of the bit-exact resume guarantee. The pairs are
// built in order (that consumes the manifest RNG); the Smatch labels draw
// nothing from it, so they are computed in parallel, one task per pair.
std::vector<data::PlanPair> BuildSlicePairs(
    const std::vector<std::unique_ptr<plan::PlanNode>>& plans,
    const Manifest& manifest) {
  std::vector<data::PlanPair> pairs;
  const int n = static_cast<int>(plans.size());
  if (n == 0 || manifest.pairs == 0) return pairs;
  util::Rng rng(manifest.seed);
  data::RandomPlanGenerator generator(rng.Fork());
  pairs.reserve(manifest.pairs);
  for (uint32_t p = 0; p < manifest.pairs; ++p) {
    const int i = static_cast<int>(rng.UniformInt(0, n - 1));
    data::PlanPair pair;
    pair.left = plans[i]->Clone();
    if (rng.Bernoulli(manifest.related_fraction)) {
      pair.right = generator.Mutate(*plans[i], /*mutation_rate=*/0.2);
    } else {
      pair.right = plans[rng.UniformInt(0, n - 1)]->Clone();
    }
    pairs.push_back(std::move(pair));
  }
  util::ParallelRun(static_cast<int>(pairs.size()), [&](int p) {
    pairs[p].smatch = smatch::Score(*pairs[p].left, *pairs[p].right).f1;
  });
  return pairs;
}

}  // namespace

std::string AdaptationSlicePath(const std::string& dir) {
  return dir + "/slice.qpsl";
}
std::string AdaptationBaseWeightsPath(const std::string& dir) {
  return dir + "/base.qpe";
}
std::string AdaptationManifestPath(const std::string& dir) {
  return dir + "/manifest.qpam";
}
std::string AdaptationCheckpointPath(const std::string& dir) {
  return dir + "/ckpt.qpck";
}
std::string AdaptedWeightsPath(const std::string& dir) {
  return dir + "/adapted.qpe";
}

bool AdaptationPending(const std::string& dir) {
  return !dir.empty() && util::FileExists(AdaptationManifestPath(dir));
}

bool AdaptedWeightsPresent(const std::string& dir) {
  return !dir.empty() && !AdaptationPending(dir) &&
         util::FileExists(AdaptedWeightsPath(dir));
}

void ClearAdaptation(const std::string& dir) {
  if (dir.empty()) return;
  // Manifest first: whatever else remains is then unambiguously garbage.
  std::remove(AdaptationManifestPath(dir).c_str());
  std::remove(AdaptationCheckpointPath(dir).c_str());
  std::remove(AdaptationBaseWeightsPath(dir).c_str());
  std::remove(AdaptationSlicePath(dir).c_str());
  std::remove(AdaptedWeightsPath(dir).c_str());
}

util::StatusOr<AdaptationResult> RunAdaptation(
    const encoder::TransformerPlanEncoder& base,
    const std::vector<std::string>& slice, const AdaptationConfig& config) {
  if (config.dir.empty()) {
    return util::InvalidArgumentError("adaptation directory not set");
  }
  ::mkdir(config.dir.c_str(), 0755);  // EEXIST is fine; writes catch others

  AdaptationResult result;
  Manifest manifest;
  if (AdaptationPending(config.dir)) {
    util::StatusOr<Manifest> loaded = LoadManifest(config.dir);
    if (!loaded.ok()) return loaded.status();
    manifest = *loaded;
    result.resumed = true;
  } else {
    if (slice.empty()) {
      return util::FailedPreconditionError(
          "adaptation requested with an empty drifted slice");
    }
    manifest.base_fingerprint = serve::ModelFingerprint(base);
    manifest.seed = config.seed;
    manifest.epochs = static_cast<uint32_t>(std::max(config.epochs, 1));
    manifest.pairs = static_cast<uint32_t>(std::max(config.pairs, 1));
    manifest.batch_size = static_cast<uint32_t>(std::max(config.batch_size, 1));
    manifest.lr = config.lr;
    manifest.related_fraction = config.related_fraction;
    // Inputs first, then the manifest: its rename is the commit point, and
    // it must never reference a slice or base-weights file that is not
    // fully on disk.
    if (util::Status s = SaveSlice(config.dir, slice); !s.ok()) return s;
    if (util::Status s = nn::SaveModuleToFileStatus(
            base, AdaptationBaseWeightsPath(config.dir));
        !s.ok())
      return s;
    if (util::Status s = SaveManifest(config.dir, manifest); !s.ok()) return s;
  }

  util::StatusOr<std::vector<std::string>> slice_texts = LoadSlice(config.dir);
  if (!slice_texts.ok()) return slice_texts.status();
  result.slice_plans.reserve(slice_texts->size());
  for (const std::string& text : *slice_texts) {
    util::StatusOr<std::unique_ptr<plan::PlanNode>> parsed =
        plan::ParsePlanNodeChecked(text);
    if (!parsed.ok()) return parsed.status();
    result.slice_plans.push_back(std::move(*parsed));
  }

  // Rebuild the training setup deterministically: clone the architecture,
  // load the persisted base weights (NOT the live encoder's — it may have
  // moved since the manifest committed), fresh match head from the seed.
  util::Rng init_rng(manifest.seed ^ 0x5EED5EED5EED5EEDULL);
  auto clone = std::make_unique<encoder::TransformerPlanEncoder>(base.config(),
                                                                 &init_rng);
  if (util::Status s = nn::LoadModuleFromFileStatus(
          clone.get(), AdaptationBaseWeightsPath(config.dir));
      !s.ok())
    return s;
  encoder::PpsrModel model(std::move(clone), &init_rng);

  const std::vector<data::PlanPair> pairs =
      BuildSlicePairs(result.slice_plans, manifest);

  encoder::PpsrTrainOptions options;
  options.epochs = static_cast<int>(manifest.epochs);
  options.lr = manifest.lr;
  options.batch_size = static_cast<int>(manifest.batch_size);
  options.seed = manifest.seed;
  options.checkpoint.path = AdaptationCheckpointPath(config.dir);
  options.checkpoint.interval_epochs = 1;
  options.checkpoint.resume = true;
  options.abort = config.abort;
  encoder::PpsrTrainStats stats;
  options.stats = &stats;
  result.final_loss = TrainPpsr(&model, pairs, options);
  if (!stats.io_status.ok()) return stats.io_status;
  result.aborted = stats.aborted;
  result.resumed_from_epoch = stats.resumed_from_epoch;
  if (result.aborted) {
    // Manifest and checkpoint stay on disk: the next call resumes exactly
    // where the last completed epoch checkpointed, as after a SIGKILL.
    return result;
  }

  // Completion protocol: adapted weights become durable BEFORE the manifest
  // disappears, so a crash in between re-runs an already-finished round
  // (idempotent) instead of losing it.
  util::Rng out_rng(manifest.seed ^ 0x0ADA97ED0ADA97EDULL);
  auto adapted = std::make_unique<encoder::TransformerPlanEncoder>(
      base.config(), &out_rng);
  nn::CopyParameters(*model.encoder(), adapted.get());
  if (util::Status s =
          nn::SaveModuleToFileStatus(*adapted, AdaptedWeightsPath(config.dir));
      !s.ok())
    return s;
  std::remove(AdaptationManifestPath(config.dir).c_str());
  std::remove(AdaptationCheckpointPath(config.dir).c_str());
  std::remove(AdaptationBaseWeightsPath(config.dir).c_str());
  std::remove(AdaptationSlicePath(config.dir).c_str());
  result.encoder = std::move(adapted);
  return result;
}

util::StatusOr<std::unique_ptr<encoder::TransformerPlanEncoder>>
LoadAdaptedEncoder(const std::string& dir,
                   const encoder::StructureEncoderConfig& config) {
  util::Rng rng(0x10AD10AD10AD10ADULL);
  auto encoder = std::make_unique<encoder::TransformerPlanEncoder>(config,
                                                                   &rng);
  if (util::Status s =
          nn::LoadModuleFromFileStatus(encoder.get(), AdaptedWeightsPath(dir));
      !s.ok())
    return s;
  return encoder;
}

}  // namespace qpe::drift
