// Fault-tolerance tests: crash-safe checkpoint format (corruption matrix),
// transactional loading (zero mutation on any failure), deterministic fault
// injection through every IO site, and bit-exact interrupt/resume for all
// three checkpointing trainers.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "data/plan_corpus.h"
#include "encoder/performance_encoder.h"
#include "encoder/ppsr.h"
#include "encoder/structure_encoder.h"
#include "gtest/gtest.h"
#include "nn/checkpoint.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "util/bytes.h"
#include "util/checksum.h"
#include "util/durable_file.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/status.h"

// The largest single allocation made while tracking is on: the hostile-
// length test proves a claimed length never sizes an allocation.
namespace {
std::atomic<bool> g_track_allocations{false};
std::atomic<size_t> g_largest_allocation{0};
}  // namespace

void* operator new(size_t size) {
  if (g_track_allocations.load(std::memory_order_relaxed)) {
    size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
    while (size > seen &&
           !g_largest_allocation.compare_exchange_weak(seen, size)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair an inlined free() with a new
// expression and warn.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace qpe::nn {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<std::vector<float>> AllValues(const Module& module) {
  std::vector<std::vector<float>> values;
  for (const auto& [name, tensor] : module.NamedParameters()) {
    values.push_back(tensor.value());
  }
  return values;
}

bool SameState(const OptimizerState& a, const OptimizerState& b) {
  return a.kind == b.kind && a.step_count == b.step_count && a.slots == b.slots;
}

std::string ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A tiny perf-encoder dataset with synthetic features so the resume tests
// run in milliseconds and depend only on the RNG seed.
encoder::PerfEncoderConfig TinyConfig() {
  encoder::PerfEncoderConfig config;
  config.node_dim = 6;
  config.meta_dim = 3;
  config.db_dim = 2;
  config.column_hidden = 8;
  config.embed_dim = 8;
  return config;
}

data::OperatorSample SyntheticSample(util::Rng* rng) {
  data::OperatorSample sample;
  for (int i = 0; i < 6; ++i) sample.node_features.push_back(rng->Uniform());
  for (int i = 0; i < 3; ++i) sample.meta_features.push_back(rng->Uniform());
  for (int i = 0; i < 2; ++i) sample.db_features.push_back(rng->Uniform());
  sample.actual_total_time_ms = 1.0 + 40.0 * rng->Uniform();
  sample.total_cost = 10.0 + 100.0 * rng->Uniform();
  sample.startup_cost = rng->Uniform();
  return sample;
}

data::OperatorDataset SyntheticDataset(int train_n = 48) {
  util::Rng rng(123);
  data::OperatorDataset dataset;
  for (int i = 0; i < train_n; ++i) {
    dataset.train.push_back(SyntheticSample(&rng));
  }
  for (int i = 0; i < 8; ++i) dataset.val.push_back(SyntheticSample(&rng));
  for (int i = 0; i < 8; ++i) dataset.test.push_back(SyntheticSample(&rng));
  return dataset;
}

data::PlanPairDataset TinyPairDataset() {
  return data::BuildCorpusPairDataset(
      {.num_pairs = 20, .corpus = {.max_nodes = 12}});
}

// The three checkpointing trainers, each on a tiny dataset from a freshly
// seeded model: train `epochs` against `checkpoint`, report the first
// checkpoint IO error and the weights before and after.
struct TrainerRun {
  util::Status io_status{};
  std::vector<std::vector<float>> initial{}, trained{};
};

TrainerRun RunPerfEncoder(int epochs, const CheckpointConfig& checkpoint) {
  util::Rng rng(7);
  encoder::PerformanceEncoder model(TinyConfig(), &rng);
  TrainerRun run{.initial = AllValues(model)};
  TrainPerformanceEncoder(&model, SyntheticDataset(),
                          {.epochs = epochs,
                           .checkpoint = checkpoint,
                           .io_status = &run.io_status});
  run.trained = AllValues(model);
  return run;
}

TrainerRun RunPpsr(int epochs, const CheckpointConfig& checkpoint) {
  util::Rng rng(31);
  encoder::PpsrModel model(
      std::make_unique<encoder::FnnPlanEncoder>(8, 6, &rng), &rng);
  TrainerRun run{.initial = AllValues(model)};
  encoder::PpsrTrainStats stats;
  TrainPpsr(&model, TinyPairDataset().train,
            {.epochs = epochs, .checkpoint = checkpoint, .stats = &stats});
  run.io_status = stats.io_status;
  run.trained = AllValues(model);
  return run;
}

TrainerRun RunSparseAutoencoder(int epochs,
                                const CheckpointConfig& checkpoint) {
  const data::PlanPairDataset dataset = TinyPairDataset();
  std::vector<const plan::PlanNode*> plans;
  for (const auto& pair : dataset.train) plans.push_back(pair.left.get());
  util::Rng rng(13);
  encoder::SparseAutoencoder model(8, &rng);
  TrainerRun run{.initial = AllValues(model)};
  run.io_status = encoder::PretrainSparseAutoencoder(&model, plans, epochs,
                                                     5e-3f, 1, 2, checkpoint);
  run.trained = AllValues(model);
  return run;
}

const std::pair<const char*, TrainerRun (*)(int, const CheckpointConfig&)>
    kTrainers[] = {{"perf_encoder", RunPerfEncoder},
                   {"ppsr", RunPpsr},
                   {"sparse_autoencoder", RunSparseAutoencoder}};

// Builds a checkpoint with non-trivial Adam moments by running a couple of
// real training epochs against it.
struct SavedCheckpoint {
  std::string path;
  std::vector<std::vector<float>> model_values{};
};

SavedCheckpoint MakeValidCheckpoint(const char* name) {
  SavedCheckpoint saved{.path = TempPath(name)};
  std::remove(saved.path.c_str());
  const TrainerRun run = RunPerfEncoder(2, {.path = saved.path});
  EXPECT_TRUE(run.io_status.ok()) << run.io_status.ToString();
  EXPECT_TRUE(util::FileExists(saved.path));
  saved.model_values = run.trained;
  return saved;
}

// A fresh model/optimizer pair that every failed load must leave untouched.
struct Victim {
  Victim() : rng(99), model(TinyConfig(), &rng),
             optimizer(model.Parameters(), 1e-3f) {}

  util::Rng rng;
  encoder::PerformanceEncoder model;
  Adam optimizer;
};

// --- Save/load round trip -------------------------------------------------

TEST(CheckpointTest, RoundTripRestoresModelOptimizerAndState) {
  const SavedCheckpoint saved =
      MakeValidCheckpoint("qpe_ckpt_roundtrip.ckpt");

  Victim victim;
  EXPECT_NE(AllValues(victim.model), saved.model_values);
  TrainingState state;
  const util::Status s = LoadTrainingCheckpoint(saved.path, &victim.model,
                                                &victim.optimizer, &state);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(AllValues(victim.model), saved.model_values);
  EXPECT_EQ(state.next_epoch, 2);
  EXPECT_GT(state.global_step, 0);
  const OptimizerState opt = victim.optimizer.ExportState();
  EXPECT_EQ(opt.kind, "adam");
  EXPECT_EQ(opt.step_count, state.global_step);
  std::remove(saved.path.c_str());
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  Victim victim;
  TrainingState state;
  const util::Status s = LoadTrainingCheckpoint(
      TempPath("qpe_ckpt_never_written.ckpt"), &victim.model,
      &victim.optimizer, &state);
  EXPECT_EQ(s.code(), util::StatusCode::kNotFound);
}

// --- Corruption matrix ----------------------------------------------------

// Every corrupted variant must fail with a descriptive Status and leave the
// destination model + optimizer byte-identical to their pre-call state.
void ExpectCleanRejection(const std::string& corrupt_path,
                          util::StatusCode expected_code,
                          const std::string& expected_substring) {
  Victim victim;
  const auto values_before = AllValues(victim.model);
  const OptimizerState opt_before = victim.optimizer.ExportState();
  TrainingState state;
  state.next_epoch = 41;  // sentinel: must survive the failed load
  const util::Status s = LoadTrainingCheckpoint(corrupt_path, &victim.model,
                                                &victim.optimizer, &state);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), expected_code) << s.ToString();
  EXPECT_NE(s.message().find(expected_substring), std::string::npos)
      << "missing '" << expected_substring << "' in: " << s.ToString();
  EXPECT_EQ(AllValues(victim.model), values_before);
  EXPECT_TRUE(SameState(victim.optimizer.ExportState(), opt_before));
  EXPECT_EQ(state.next_epoch, 41);
}

TEST(CheckpointTest, CorruptionMatrixFailsCleanly) {
  const SavedCheckpoint saved = MakeValidCheckpoint("qpe_ckpt_matrix.ckpt");
  const std::string bytes = ReadFile(saved.path);
  constexpr size_t kHeaderSize = 20;  // magic + version + size + crc
  ASSERT_GT(bytes.size(), kHeaderSize + 64);
  const std::string corrupt_path = TempPath("qpe_ckpt_matrix_corrupt.ckpt");

  // Zero-length file.
  WriteFile(corrupt_path, "");
  ExpectCleanRejection(corrupt_path, util::StatusCode::kDataLoss, "checkpoint");

  // Truncated mid-header.
  WriteFile(corrupt_path, bytes.substr(0, 10));
  ExpectCleanRejection(corrupt_path, util::StatusCode::kDataLoss, "checkpoint");

  // Truncated mid-payload: the header's payload size no longer matches.
  WriteFile(corrupt_path, bytes.substr(0, bytes.size() - 37));
  ExpectCleanRejection(corrupt_path, util::StatusCode::kDataLoss, "payload");

  // A single flipped bit deep in the payload: caught by the CRC.
  {
    std::string flipped = bytes;
    flipped[kHeaderSize + flipped.size() / 2] ^= 0x10;
    WriteFile(corrupt_path, flipped);
    ExpectCleanRejection(corrupt_path, util::StatusCode::kDataLoss,
                         "CRC mismatch");
  }

  // Version-field mismatch (CRC still valid: it covers the payload only).
  {
    std::string future = bytes;
    future[4] = 99;  // little-endian u32 version at offset 4
    WriteFile(corrupt_path, future);
    ExpectCleanRejection(corrupt_path, util::StatusCode::kFailedPrecondition,
                         "format version");
  }

  // Bad magic.
  {
    std::string wrong = bytes;
    wrong[0] ^= 0xFF;
    WriteFile(corrupt_path, wrong);
    ExpectCleanRejection(corrupt_path, util::StatusCode::kDataLoss,
                         "bad magic");
  }

  // Damage inside the module section under a valid CRC: the payload is
  // patched and the header's CRC recomputed. The payload starts with the
  // training state (6 x 8 bytes) and RNG state (4 x 8 + 4 + 8); then come
  // the module section size (u64) and the module (magic, count, first name
  // length).
  constexpr size_t kModuleSectionSize = 48 + 44;
  constexpr size_t kFirstNameLength = kModuleSectionSize + 8 + 4 + 4;
  const auto write_patched = [&](size_t offset, uint32_t value) {
    std::string payload = bytes.substr(kHeaderSize);
    std::string patch;
    util::PutU32(&patch, value);
    payload.replace(offset, 4, patch);
    std::string file = bytes.substr(0, kHeaderSize - 4);
    util::PutU32(&file, util::Crc32(payload));
    WriteFile(corrupt_path, file + payload);
  };
  // A hostile name length is rejected before anything is sized by it.
  write_patched(kFirstNameLength, 0xFFFFFFF0u);
  ExpectCleanRejection(corrupt_path, util::StatusCode::kDataLoss,
                       "truncated reading name");
  // A section size that disagrees with the module it frames.
  uint64_t module_size = 0;
  std::memcpy(&module_size, bytes.data() + kHeaderSize + kModuleSectionSize,
              sizeof(module_size));
  write_patched(kModuleSectionSize, static_cast<uint32_t>(module_size) + 1);
  ExpectCleanRejection(corrupt_path, util::StatusCode::kDataLoss,
                       "module section size");

  std::remove(corrupt_path.c_str());
  std::remove(saved.path.c_str());
}

// A CRC-valid checkpoint whose module holds one Inf weight is refused
// during staging, naming the tensor, and leaves the destination untouched.
TEST(CheckpointTest, NonFiniteWeightRejectedWithoutMutation) {
  const std::string path = TempPath("qpe_ckpt_inf.ckpt");
  Victim source;
  auto named = source.model.NamedParameters();
  named[0].second.value()[0] = std::numeric_limits<float>::infinity();
  ASSERT_TRUE(SaveTrainingCheckpoint(path, source.model, source.optimizer,
                                     TrainingState{})
                  .ok());

  Victim victim;
  const auto values_before = AllValues(victim.model);
  TrainingState state;
  const util::Status s =
      LoadTrainingCheckpoint(path, &victim.model, &victim.optimizer, &state);
  EXPECT_EQ(s.code(), util::StatusCode::kDataLoss) << s.ToString();
  EXPECT_NE(s.message().find(named[0].first), std::string::npos)
      << s.ToString();
  EXPECT_EQ(AllValues(victim.model), values_before);
  std::remove(path.c_str());
}

// A checkpoint for a different architecture must be rejected without
// touching the destination (the shape check runs during staging).
TEST(CheckpointTest, ArchitectureMismatchRejectedWithoutMutation) {
  const SavedCheckpoint saved = MakeValidCheckpoint("qpe_ckpt_arch.ckpt");
  util::Rng rng(5);
  encoder::PerfEncoderConfig other = TinyConfig();
  other.embed_dim = 12;  // different merge/head shapes
  encoder::PerformanceEncoder model(other, &rng);
  Adam optimizer(model.Parameters(), 1e-3f);
  const auto values_before = AllValues(model);
  TrainingState state;
  const util::Status s =
      LoadTrainingCheckpoint(saved.path, &model, &optimizer, &state);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_EQ(AllValues(model), values_before);
  std::remove(saved.path.c_str());
}

// --- Fault injection ------------------------------------------------------

TEST(CheckpointTest, InjectedSaveFaultsLeaveNoFileBehind) {
  const data::OperatorDataset dataset = SyntheticDataset(16);
  util::Rng rng(7);
  encoder::PerformanceEncoder model(TinyConfig(), &rng);
  Adam optimizer(model.Parameters(), 1e-3f);
  TrainingState state;
  const std::string path = TempPath("qpe_ckpt_fault_save.ckpt");
  std::remove(path.c_str());
  const std::string tmp_path = path + ".tmp";

  // Walk the fault through every checkpoint-write site (open, write, flush,
  // rename): each must fail with a descriptive IO Status, leave no final
  // file, and leak no temp file. Eventually the fault index exceeds the
  // number of sites and the save succeeds.
  int failures = 0;
  bool succeeded = false;
  for (int nth = 1; nth <= 10 && !succeeded; ++nth) {
    util::ScopedFaultInjection guard("checkpoint.", nth);
    const util::Status s = SaveTrainingCheckpoint(path, model, optimizer,
                                                  state);
    if (s.ok()) {
      succeeded = true;
      break;
    }
    ++failures;
    EXPECT_EQ(s.code(), util::StatusCode::kIo) << s.ToString();
    EXPECT_NE(s.message().find("injected fault"), std::string::npos)
        << s.ToString();
    EXPECT_FALSE(util::FileExists(path)) << "partial checkpoint after fault";
    EXPECT_FALSE(util::FileExists(tmp_path)) << "leaked temp file";
  }
  EXPECT_TRUE(succeeded) << "save never recovered past the fault sweep";
  EXPECT_GE(failures, 3);  // at least open/write/rename are separate sites
  EXPECT_TRUE(util::FileExists(path));
  EXPECT_FALSE(util::FileExists(tmp_path));
  std::remove(path.c_str());
}

TEST(CheckpointTest, InjectedReadFaultLeavesModelUntouched) {
  const SavedCheckpoint saved = MakeValidCheckpoint("qpe_ckpt_fault_read.ckpt");
  Victim victim;
  const auto values_before = AllValues(victim.model);
  TrainingState state;
  util::ScopedFaultInjection guard("checkpoint.read", 1);
  const util::Status s = LoadTrainingCheckpoint(saved.path, &victim.model,
                                                &victim.optimizer, &state);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("injected fault"), std::string::npos);
  EXPECT_EQ(AllValues(victim.model), values_before);
  std::remove(saved.path.c_str());
}

// A failed periodic save must not abort training: the error is surfaced,
// the later saves land, and the run completes every epoch with the weights
// of a run without checkpointing.
TEST(CheckpointTest, FailedPeriodicSaveDegradesButTrainingContinues) {
  const std::string path = TempPath("qpe_ckpt_degrade.ckpt");
  for (const auto& [name, train] : kTrainers) {
    SCOPED_TRACE(name);
    std::remove(path.c_str());
    util::ScopedFaultInjection guard("checkpoint.rename", 1);
    const TrainerRun run = train(3, {.path = path});
    EXPECT_FALSE(run.io_status.ok());
    EXPECT_NE(run.io_status.message().find("injected fault"),
              std::string::npos);
    EXPECT_TRUE(util::FileExists(path)) << "later saves were lost";
    EXPECT_EQ(run.trained, train(3, {}).trained) << "training stopped early";
  }
  std::remove(path.c_str());
}

// A corrupt resume file must abort the run (zero epochs) instead of being
// silently overwritten by a fresh training run.
TEST(CheckpointTest, CorruptResumeFileAbortsInsteadOfOverwriting) {
  const std::string path = TempPath("qpe_ckpt_noclobber.ckpt");
  for (const auto& [name, train] : kTrainers) {
    SCOPED_TRACE(name);
    std::remove(path.c_str());
    ASSERT_TRUE(train(2, {.path = path}).io_status.ok());
    std::string bytes = ReadFile(path);
    bytes[bytes.size() / 2] ^= 0x01;
    WriteFile(path, bytes);
    const TrainerRun run = train(3, {.path = path});
    EXPECT_EQ(run.io_status.code(), util::StatusCode::kDataLoss)
        << run.io_status.ToString();
    EXPECT_EQ(run.trained, run.initial) << "trained instead of stopping";
    EXPECT_EQ(ReadFile(path), bytes) << "corrupt checkpoint was clobbered";
  }
  std::remove(path.c_str());
}

// --- Transactional LoadModule (partial-mutation regression) ---------------

TEST(LoadModuleTest, ShapeMismatchLeavesDestinationUntouched) {
  util::Rng r1(1), r2(2);
  // First layer matches, second differs: staging must reach the mismatch
  // only after earlier tensors validated, and still mutate nothing.
  Mlp source({4, 6, 3}, Activation::kRelu, Activation::kNone, &r1);
  Mlp dest({4, 6, 4}, Activation::kRelu, Activation::kNone, &r2);
  std::string bytes;
  SaveModule(source, &bytes);
  const auto values_before = AllValues(dest);

  EXPECT_FALSE(LoadModuleStatus(&dest, bytes).ok());
  EXPECT_EQ(AllValues(dest), values_before);

  const util::Status s = LoadModuleStatus(&dest, bytes);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kFailedPrecondition) << s.ToString();
  // The diagnostic names the offending tensor and both shapes.
  EXPECT_NE(s.message().find("layer1.weight"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(AllValues(dest), values_before);
}

TEST(LoadModuleTest, TruncatedStreamLeavesDestinationUntouched) {
  util::Rng r1(3), r2(4);
  Mlp source({4, 6, 3}, Activation::kRelu, Activation::kNone, &r1);
  Mlp dest({4, 6, 3}, Activation::kRelu, Activation::kNone, &r2);
  std::string bytes;
  SaveModule(source, &bytes);
  const auto values_before = AllValues(dest);

  // Cut in the middle of the last tensor's data.
  const util::Status s = LoadModuleStatus(
      &dest, std::string_view(bytes).substr(0, bytes.size() - 5));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kDataLoss) << s.ToString();
  EXPECT_NE(s.message().find("truncated"), std::string::npos) << s.ToString();
  EXPECT_EQ(AllValues(dest), values_before);
}

// A name length of 0xFFFFFFF0 in 12 bytes of input is kDataLoss naming the
// field and offset, and no allocation is sized by the claimed length.
TEST(LoadModuleTest, HostileNameLengthIsDataLossWithoutAllocation) {
  util::Rng rng(7);
  Linear dest(5, 3, &rng);
  const auto values_before = AllValues(dest);
  std::string bytes;
  util::PutU32(&bytes, 0x51504531);  // module magic
  util::PutU32(&bytes, 2);           // weight, bias
  util::PutU32(&bytes, 0xFFFFFFF0u);
  g_largest_allocation = 0;
  g_track_allocations = true;
  const util::Status s = LoadModuleStatus(&dest, bytes);
  g_track_allocations = false;
  EXPECT_EQ(s.code(), util::StatusCode::kDataLoss) << s.ToString();
  EXPECT_NE(s.message().find("truncated reading name at offset 12"),
            std::string::npos)
      << s.ToString();
  EXPECT_LT(g_largest_allocation.load(), size_t{1} << 20);
  EXPECT_EQ(AllValues(dest), values_before);
}

// A module weight file (EncoderSuite's structure.qpe / perf_*.qpe, the
// adaptation round's base and adapted weights) is replaced atomically: a
// save that fails at any write site leaves the previous file byte-identical
// and loadable, with no temp file behind.
TEST(SaveModuleTest, FailedSaveKeepsThePreviousFile) {
  util::Rng r1(5), r2(6);
  Mlp old_weights({4, 6, 3}, Activation::kRelu, Activation::kNone, &r1);
  Mlp new_weights({4, 6, 3}, Activation::kRelu, Activation::kNone, &r2);
  const std::string path = TempPath("qpe_module_fault_save.qpe");
  ASSERT_TRUE(SaveModuleToFileStatus(old_weights, path).ok());
  const std::string before = ReadFile(path);
  for (const char* site : {"module.save.open_tmp", "module.save.write",
                           "module.save.flush", "module.save.rename"}) {
    SCOPED_TRACE(site);
    util::ScopedFaultInjection guard(site, 1);
    const util::Status s = SaveModuleToFileStatus(new_weights, path);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("injected fault"), std::string::npos)
        << s.ToString();
    EXPECT_EQ(ReadFile(path), before);
    EXPECT_FALSE(util::FileExists(path + ".tmp")) << "leaked temp file";
    Mlp loaded({4, 6, 3}, Activation::kRelu, Activation::kNone, &r2);
    ASSERT_TRUE(LoadModuleFromFileStatus(&loaded, path).ok());
    EXPECT_EQ(AllValues(loaded), AllValues(old_weights));
  }
  std::remove(path.c_str());
}

// --- Golden bytes ----------------------------------------------------------

// The module file format and the checkpoint file are pinned by CRC-32: a
// codec change must leave every byte on disk where it was.
TEST(GoldenBytesTest, SaveModuleBytesArePinned) {
  util::Rng rng(2021);
  Linear linear(5, 3, &rng);
  std::string bytes;
  SaveModule(linear, &bytes);
  EXPECT_EQ(bytes.size(), 4u + 4 + (4 + 6 + 8 + 60) + (4 + 4 + 8 + 12));
  EXPECT_EQ(util::Crc32(bytes), 892794734u);
}

TEST(GoldenBytesTest, CheckpointBytesArePinned) {
  util::Rng rng(2021);
  Linear linear(5, 3, &rng);
  Adam optimizer(linear.Parameters(), 1e-2f);
  for (Tensor& p : linear.Parameters()) {
    std::vector<float>& grad = p.grad();
    for (size_t i = 0; i < grad.size(); ++i) {
      grad[i] = 0.01f * static_cast<float>(i % 7) - 0.02f;
    }
  }
  optimizer.Step();
  TrainingState state;
  state.next_epoch = 3;
  state.global_step = 17;
  state.skipped_batches = 1;
  state.nonfinite_losses = 2;
  state.best_val = 0.125;
  state.best_epoch = 2;
  util::Rng stream(7);
  (void)stream.Normal();  // leaves a cached normal in the snapshot
  state.rng = stream.GetState();
  const std::string path = TempPath("qpe_ckpt_golden.ckpt");
  ASSERT_TRUE(SaveTrainingCheckpoint(path, linear, optimizer, state).ok());
  const std::string bytes = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(bytes.size(), 438u);
  EXPECT_EQ(util::Crc32(bytes), 794882101u);
}

// --- Bit-exact interrupt/resume ------------------------------------------

// Acceptance criterion: a run checkpointed and interrupted at epoch k, then
// resumed, must finish with bit-identical parameters to an uninterrupted
// run at the same thread count.
TEST(ResumeTest, PerfEncoderResumeIsBitExact) {
  const data::OperatorDataset dataset = SyntheticDataset();
  const std::string path = TempPath("qpe_resume_perf.ckpt");
  std::remove(path.c_str());

  encoder::PerfTrainOptions uninterrupted;
  uninterrupted.epochs = 6;
  uninterrupted.batch_size = 16;
  util::Rng rng_a(77);
  encoder::PerformanceEncoder model_a(TinyConfig(), &rng_a);
  const auto history_a = TrainPerformanceEncoder(&model_a, dataset,
                                                 uninterrupted);
  ASSERT_EQ(history_a.size(), 6u);

  // Interrupted run: 3 epochs with checkpointing, then resume to 6.
  util::Rng rng_b(77);
  encoder::PerformanceEncoder model_b(TinyConfig(), &rng_b);
  encoder::PerfTrainOptions first_half = uninterrupted;
  first_half.epochs = 3;
  first_half.checkpoint.path = path;
  util::Status io_status;
  first_half.io_status = &io_status;
  ASSERT_EQ(TrainPerformanceEncoder(&model_b, dataset, first_half).size(), 3u);
  ASSERT_TRUE(io_status.ok()) << io_status.ToString();

  // The resumed process starts from a *fresh* model, as after a crash.
  util::Rng rng_c(77);
  encoder::PerformanceEncoder model_c(TinyConfig(), &rng_c);
  encoder::PerfTrainOptions second_half = uninterrupted;
  second_half.checkpoint.path = path;
  second_half.io_status = &io_status;
  const auto resumed = TrainPerformanceEncoder(&model_c, dataset, second_half);
  ASSERT_TRUE(io_status.ok()) << io_status.ToString();
  EXPECT_EQ(resumed.size(), 3u) << "resume should run only epochs 3..5";

  EXPECT_EQ(AllValues(model_c), AllValues(model_a));
  // And the resumed epochs reproduce the uninterrupted history exactly.
  for (size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed[i].val_mae_ms, history_a[i + 3].val_mae_ms);
  }
  std::remove(path.c_str());
}

TEST(ResumeTest, PpsrResumeIsBitExact) {
  const data::PlanPairDataset dataset = TinyPairDataset();
  const std::string path = TempPath("qpe_resume_ppsr.ckpt");
  std::remove(path.c_str());

  encoder::PpsrTrainOptions uninterrupted;
  uninterrupted.epochs = 4;
  util::Rng rng_a(31);
  encoder::PpsrModel model_a(
      std::make_unique<encoder::FnnPlanEncoder>(8, 6, &rng_a), &rng_a);
  TrainPpsr(&model_a, dataset.train, uninterrupted);

  util::Rng rng_b(31);
  encoder::PpsrModel model_b(
      std::make_unique<encoder::FnnPlanEncoder>(8, 6, &rng_b), &rng_b);
  encoder::PpsrTrainOptions first_half = uninterrupted;
  first_half.epochs = 2;
  first_half.checkpoint.path = path;
  encoder::PpsrTrainStats stats;
  first_half.stats = &stats;
  TrainPpsr(&model_b, dataset.train, first_half);
  ASSERT_TRUE(stats.io_status.ok()) << stats.io_status.ToString();

  util::Rng rng_c(31);
  encoder::PpsrModel model_c(
      std::make_unique<encoder::FnnPlanEncoder>(8, 6, &rng_c), &rng_c);
  encoder::PpsrTrainOptions second_half = uninterrupted;
  second_half.checkpoint.path = path;
  second_half.stats = &stats;
  TrainPpsr(&model_c, dataset.train, second_half);
  ASSERT_TRUE(stats.io_status.ok()) << stats.io_status.ToString();
  EXPECT_EQ(stats.resumed_from_epoch, 2);

  EXPECT_EQ(AllValues(model_c), AllValues(model_a));
  std::remove(path.c_str());
}

TEST(ResumeTest, SparseAutoencoderResumeIsBitExact) {
  std::vector<std::unique_ptr<plan::PlanNode>> owned;
  std::vector<const plan::PlanNode*> plans;
  data::CorpusOptions corpus;
  corpus.min_nodes = 4;
  corpus.max_nodes = 14;
  for (int i = 0; i < 12; ++i) {
    data::RandomPlanGenerator generator(util::Rng(200 + i), corpus);
    owned.push_back(generator.Generate());
    plans.push_back(owned.back().get());
  }
  const std::string path = TempPath("qpe_resume_sae.ckpt");
  std::remove(path.c_str());

  util::Rng rng_a(13);
  encoder::SparseAutoencoder model_a(8, &rng_a);
  ASSERT_TRUE(PretrainSparseAutoencoder(&model_a, plans, 6, 5e-3f, 1, 2).ok());

  util::Rng rng_b(13);
  encoder::SparseAutoencoder model_b(8, &rng_b);
  const CheckpointConfig checkpoint{.path = path};
  ASSERT_TRUE(
      PretrainSparseAutoencoder(&model_b, plans, 3, 5e-3f, 1, 2, checkpoint)
          .ok());

  util::Rng rng_c(13);
  encoder::SparseAutoencoder model_c(8, &rng_c);
  ASSERT_TRUE(
      PretrainSparseAutoencoder(&model_c, plans, 6, 5e-3f, 1, 2, checkpoint)
          .ok());

  EXPECT_EQ(AllValues(model_c), AllValues(model_a));
  std::remove(path.c_str());
}

// --- Loss-spike guard -----------------------------------------------------

TEST(LossSpikeGuardTest, NonFiniteBatchesAreSkippedAndCounted) {
  data::OperatorDataset dataset = SyntheticDataset();
  // Poison one training sample with a huge feature value: the squared loss
  // overflows float to Inf for every batch containing it. (A literal NaN
  // would be silently squashed by ReLU / label clamping before the loss.)
  dataset.train[5].node_features[0] = 1e30;

  util::Rng rng(7);
  encoder::PerformanceEncoder model(TinyConfig(), &rng);
  encoder::PerfTrainOptions options;
  options.epochs = 3;
  options.batch_size = 16;  // 48 samples -> 3 batches, 1 poisoned per epoch
  const auto history = TrainPerformanceEncoder(&model, dataset, options);
  ASSERT_EQ(history.size(), 3u);

  int skipped = 0, nonfinite = 0;
  for (const auto& stats : history) {
    skipped += stats.skipped_batches;
    nonfinite += stats.nonfinite_losses;
  }
  EXPECT_EQ(skipped, 3) << "exactly the poisoned batch, every epoch";
  EXPECT_EQ(nonfinite, skipped);

  // The guard kept the poison out of the weights and Adam moments.
  for (const auto& values : AllValues(model)) {
    for (float v : values) ASSERT_TRUE(std::isfinite(v));
  }
  // Clean validation data still evaluates to a finite MAE.
  EXPECT_TRUE(std::isfinite(history.back().val_mae_ms));
}

}  // namespace
}  // namespace qpe::nn
