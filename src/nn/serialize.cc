#include "nn/serialize.h"

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/durable_file.h"
#include "util/fault_injection.h"

namespace qpe::nn {

namespace {

constexpr uint32_t kMagic = 0x51504531;  // "QPE1"

// Prefixes a failed read with the tensor it was staging.
util::Status InTensor(const util::Status& s, size_t i,
                      const std::string& name) {
  return util::Status(s.code(), "tensor " + std::to_string(i) + " ('" + name +
                                    "'): " + s.message());
}

// Stages a whole module input: nothing may follow the last tensor.
util::Status StageModuleBytes(Module* module, std::string_view bytes,
                              internal::StagedModule* staged) {
  if (util::Status s = util::InjectFault("module.load.read"); !s.ok()) {
    return s;
  }
  util::PayloadReader reader(bytes, "module");
  if (util::Status s = internal::StageModule(module, reader, staged); !s.ok()) {
    return s;
  }
  return reader.Finish("the last tensor");
}

}  // namespace

void SaveModule(const Module& module, std::string* out) {
  const auto named = module.NamedParameters();
  util::PutU32(out, kMagic);
  util::PutU32(out, static_cast<uint32_t>(named.size()));
  for (const auto& [name, tensor] : named) {
    util::PutString(out, name);
    util::PutU32(out, static_cast<uint32_t>(tensor.rows()));
    util::PutU32(out, static_cast<uint32_t>(tensor.cols()));
    util::PutBytes(out, tensor.value().data(),
                   tensor.value().size() * sizeof(float));
  }
}

namespace internal {

util::Status StageModule(Module* module, util::PayloadReader& reader,
                         StagedModule* staged) {
  uint32_t magic = 0, count = 0;
  if (util::Status s = reader.U32(&magic, "magic"); !s.ok()) return s;
  if (magic != kMagic) {
    return util::DataLossError("bad module magic " + std::to_string(magic) +
                               ", expected " + std::to_string(kMagic));
  }
  if (util::Status s = reader.U32(&count, "parameter count"); !s.ok()) {
    return s;
  }
  auto named = module->NamedParameters();
  if (count != named.size()) {
    return util::FailedPreconditionError(
        "module has " + std::to_string(count) +
        " parameter(s), destination module has " +
        std::to_string(named.size()));
  }
  // Stage phase: parse and validate every tensor against the destination
  // before touching any of its storage, so a failure anywhere leaves the
  // module byte-identical to its pre-call state. Buffers are sized by the
  // destination's shapes, never by a length read from the input.
  staged->values.assign(named.size(), {});
  for (size_t i = 0; i < named.size(); ++i) {
    const auto& [name, tensor] = named[i];
    std::string stored_name;
    uint32_t rows = 0, cols = 0;
    if (util::Status s = reader.Str(&stored_name, "name"); !s.ok()) {
      return InTensor(s, i, name);
    }
    if (stored_name != name) {
      return util::FailedPreconditionError(
          "tensor " + std::to_string(i) + " is named '" + stored_name +
          "' in the module bytes but '" + name + "' in the module");
    }
    util::Status s = reader.U32(&rows, "rows");
    if (s.ok()) s = reader.U32(&cols, "cols");
    if (!s.ok()) return InTensor(s, i, name);
    if (static_cast<int>(rows) != tensor.rows() ||
        static_cast<int>(cols) != tensor.cols()) {
      return util::FailedPreconditionError(
          "tensor '" + name + "' is [" + std::to_string(rows) + ", " +
          std::to_string(cols) + "] in the module bytes but [" +
          std::to_string(tensor.rows()) + ", " + std::to_string(tensor.cols()) +
          "] in the module");
    }
    std::vector<float>& values = staged->values[i];
    values.resize(static_cast<size_t>(tensor.numel()));
    if (s = reader.Bytes(values.data(), values.size() * sizeof(float), "data");
        !s.ok()) {
      return InTensor(s, i, name);
    }
    for (size_t k = 0; k < values.size(); ++k) {
      if (!std::isfinite(values[k])) {
        return util::DataLossError("tensor '" + name + "' holds a non-finite " +
                                   "value at element " + std::to_string(k));
      }
    }
  }
  return util::OkStatus();
}

util::Status StageModuleFile(Module* module, const std::string& path,
                             StagedModule* staged) {
  if (util::Status s = util::InjectFault("module.load.open"); !s.ok()) {
    return s;
  }
  util::StatusOr<std::string> bytes = util::ReadWholeFile(path, "module");
  if (!bytes.ok()) return bytes.status();
  util::Status s = StageModuleBytes(module, *bytes, staged);
  if (!s.ok()) return util::Status(s.code(), "'" + path + "': " + s.message());
  return s;
}

void CommitModule(Module* module, StagedModule&& staged) {
  auto named = module->NamedParameters();
  for (size_t i = 0; i < named.size(); ++i) {
    named[i].second.value() = std::move(staged.values[i]);
  }
}

}  // namespace internal

util::Status LoadModuleStatus(Module* module, std::string_view bytes) {
  internal::StagedModule staged;
  if (util::Status s = StageModuleBytes(module, bytes, &staged); !s.ok()) {
    return s;
  }
  internal::CommitModule(module, std::move(staged));
  return util::OkStatus();
}

util::Status SaveModuleToFileStatus(const Module& module,
                                    const std::string& path) {
  std::string bytes;
  SaveModule(module, &bytes);
  return util::WriteFileAtomic(path, bytes, "module.save");
}

util::Status LoadModuleFromFileStatus(Module* module, const std::string& path) {
  internal::StagedModule staged;
  if (util::Status s = internal::StageModuleFile(module, path, &staged);
      !s.ok()) {
    return s;
  }
  internal::CommitModule(module, std::move(staged));
  return util::OkStatus();
}

bool CopyParameters(const Module& source, Module* dest) {
  const auto src = source.NamedParameters();
  auto dst = dest->NamedParameters();
  if (src.size() != dst.size()) return false;
  for (size_t i = 0; i < src.size(); ++i) {
    if (src[i].first != dst[i].first ||
        src[i].second.rows() != dst[i].second.rows() ||
        src[i].second.cols() != dst[i].second.cols()) {
      return false;
    }
  }
  for (size_t i = 0; i < src.size(); ++i) {
    dst[i].second.value() = src[i].second.value();
  }
  return true;
}

}  // namespace qpe::nn
