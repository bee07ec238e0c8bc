#include "nn/checkpoint.h"

#include <utility>
#include <vector>

#include "nn/serialize.h"
#include "util/bytes.h"
#include "util/durable_file.h"

namespace qpe::nn {

namespace {

constexpr uint32_t kCheckpointMagic = 0x51504543;  // "QPEC"
constexpr uint32_t kCheckpointVersion = 1;

std::string BuildPayload(const Module& module, const Optimizer& optimizer,
                         const TrainingState& state) {
  std::string payload;
  // Training state.
  util::PutI64(&payload, state.next_epoch);
  util::PutI64(&payload, state.global_step);
  util::PutI64(&payload, state.skipped_batches);
  util::PutI64(&payload, state.nonfinite_losses);
  util::PutF64(&payload, state.best_val);
  util::PutI64(&payload, state.best_epoch);
  // RNG stream.
  for (uint64_t word : state.rng.s) util::PutU64(&payload, word);
  util::PutU32(&payload, state.rng.has_cached_normal ? 1 : 0);
  util::PutF64(&payload, state.rng.cached_normal);
  // Module section (the nn/serialize format, embedded verbatim).
  std::string module_bytes;
  SaveModule(module, &module_bytes);
  util::PutU64(&payload, module_bytes.size());
  payload.append(module_bytes);
  // Optimizer state.
  const OptimizerState opt = optimizer.ExportState();
  util::PutString(&payload, opt.kind);
  util::PutI64(&payload, opt.step_count);
  util::PutU32(&payload, static_cast<uint32_t>(opt.slots.size()));
  for (const auto& slot : opt.slots) {
    util::PutU32(&payload, static_cast<uint32_t>(slot.size()));
    for (const auto& buffer : slot) {
      util::PutU64(&payload, buffer.size());
      util::PutBytes(&payload, buffer.data(), buffer.size() * sizeof(float));
    }
  }
  return payload;
}

util::Status ParsePayload(const std::string& payload, Module* module,
                          TrainingState* staged_state,
                          OptimizerState* staged_opt,
                          internal::StagedModule* staged_module) {
  util::PayloadReader reader(payload, "checkpoint");
  util::Status s;
  if (s = reader.I64(&staged_state->next_epoch, "next_epoch"); !s.ok())
    return s;
  if (s = reader.I64(&staged_state->global_step, "global_step"); !s.ok())
    return s;
  if (s = reader.I64(&staged_state->skipped_batches, "skipped_batches");
      !s.ok())
    return s;
  if (s = reader.I64(&staged_state->nonfinite_losses, "nonfinite_losses");
      !s.ok())
    return s;
  if (s = reader.F64(&staged_state->best_val, "best_val"); !s.ok()) return s;
  if (s = reader.I64(&staged_state->best_epoch, "best_epoch"); !s.ok())
    return s;
  for (uint64_t& word : staged_state->rng.s) {
    if (s = reader.U64(&word, "rng state"); !s.ok()) return s;
  }
  uint32_t has_cached = 0;
  if (s = reader.U32(&has_cached, "rng cache flag"); !s.ok()) return s;
  staged_state->rng.has_cached_normal = has_cached != 0;
  if (s = reader.F64(&staged_state->rng.cached_normal, "rng cached normal");
      !s.ok())
    return s;
  // Module section, staged in place: it must end exactly where its size
  // field says.
  uint64_t module_size = 0;
  if (s = reader.U64(&module_size, "module section size"); !s.ok()) return s;
  const size_t module_start = reader.pos();
  if (s = internal::StageModule(module, reader, staged_module); !s.ok())
    return s;
  if (reader.pos() - module_start != module_size) {
    return util::DataLossError(
        "checkpoint module section size field says " +
        std::to_string(module_size) + " byte(s) but the module at offset " +
        std::to_string(module_start) + " is " +
        std::to_string(reader.pos() - module_start));
  }
  // Optimizer state.
  if (s = reader.Str(&staged_opt->kind, "optimizer kind"); !s.ok()) return s;
  if (s = reader.I64(&staged_opt->step_count, "optimizer step count"); !s.ok())
    return s;
  uint32_t num_slots = 0;
  if (s = reader.U32(&num_slots, "optimizer slot count"); !s.ok()) return s;
  staged_opt->slots.assign(num_slots, {});
  for (uint32_t slot = 0; slot < num_slots; ++slot) {
    uint32_t num_buffers = 0;
    if (s = reader.U32(&num_buffers, "optimizer buffer count"); !s.ok())
      return s;
    staged_opt->slots[slot].assign(num_buffers, {});
    for (uint32_t i = 0; i < num_buffers; ++i) {
      uint64_t count = 0;
      if (s = reader.U64(&count, "optimizer buffer size"); !s.ok()) return s;
      if (count > reader.remaining() / sizeof(float)) {
        return util::DataLossError(
            "checkpoint optimizer buffer claims " + std::to_string(count) +
            " float(s) but only " + std::to_string(reader.remaining()) +
            " byte(s) remain at offset " + std::to_string(reader.pos()));
      }
      staged_opt->slots[slot][i].resize(count);
      if (s = reader.Bytes(staged_opt->slots[slot][i].data(),
                           count * sizeof(float), "optimizer buffer");
          !s.ok())
        return s;
    }
  }
  return reader.Finish("optimizer state");
}

}  // namespace

util::Status SaveTrainingCheckpoint(const std::string& path,
                                    const Module& module,
                                    const Optimizer& optimizer,
                                    const TrainingState& state) {
  return util::WriteFramedFileAtomic(
      path, kCheckpointMagic, kCheckpointVersion,
      BuildPayload(module, optimizer, state), "checkpoint");
}

util::Status LoadTrainingCheckpoint(const std::string& path, Module* module,
                                    Optimizer* optimizer,
                                    TrainingState* state) {
  util::StatusOr<std::string> payload =
      util::ReadFramedFile(path, kCheckpointMagic, kCheckpointVersion,
                           "checkpoint", "checkpoint");
  if (!payload.ok()) return payload.status();

  // Stage everything; commit only when nothing can fail anymore.
  TrainingState staged_state;
  OptimizerState staged_opt;
  internal::StagedModule staged_module;
  if (util::Status s = ParsePayload(*payload, module, &staged_state,
                                    &staged_opt, &staged_module);
      !s.ok()) {
    return util::Status(s.code(), "checkpoint '" + path + "': " + s.message());
  }
  // ImportState validates against the live optimizer before mutating it, so
  // it is the last fallible step; the module and state commits below cannot
  // fail.
  if (util::Status s = optimizer->ImportState(staged_opt); !s.ok()) {
    return util::Status(s.code(), "checkpoint '" + path + "': " + s.message());
  }
  internal::CommitModule(module, std::move(staged_module));
  *state = staged_state;
  return util::OkStatus();
}

}  // namespace qpe::nn
