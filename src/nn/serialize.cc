#include "nn/serialize.h"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "util/durable_file.h"
#include "util/fault_injection.h"

namespace qpe::nn {

namespace {

constexpr uint32_t kMagic = 0x51504531;  // "QPE1"

void WriteU32(std::ostream& os, uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool ReadU32(std::istream& is, uint32_t* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(*v));
  return static_cast<bool>(is);
}

void WriteString(std::ostream& os, const std::string& s) {
  WriteU32(os, static_cast<uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool ReadString(std::istream& is, std::string* s) {
  uint32_t len = 0;
  if (!ReadU32(is, &len)) return false;
  s->resize(len);
  is.read(s->data(), static_cast<std::streamsize>(len));
  return static_cast<bool>(is);
}

}  // namespace

void SaveModule(const Module& module, std::ostream& os) {
  const auto named = module.NamedParameters();
  WriteU32(os, kMagic);
  WriteU32(os, static_cast<uint32_t>(named.size()));
  for (const auto& [name, tensor] : named) {
    WriteString(os, name);
    WriteU32(os, static_cast<uint32_t>(tensor.rows()));
    WriteU32(os, static_cast<uint32_t>(tensor.cols()));
    os.write(reinterpret_cast<const char*>(tensor.value().data()),
             static_cast<std::streamsize>(tensor.numel() * sizeof(float)));
  }
}

namespace internal {

util::Status StageModule(Module* module, std::istream& is,
                         StagedModule* staged) {
  uint32_t magic = 0, count = 0;
  if (!ReadU32(is, &magic)) {
    return util::DataLossError("module stream truncated in header");
  }
  if (magic != kMagic) {
    return util::DataLossError("bad module magic " + std::to_string(magic) +
                               ", expected " + std::to_string(kMagic));
  }
  if (!ReadU32(is, &count)) {
    return util::DataLossError("module stream truncated in parameter count");
  }
  auto named = module->NamedParameters();
  if (count != named.size()) {
    return util::FailedPreconditionError(
        "module stream has " + std::to_string(count) +
        " parameter(s), destination module has " +
        std::to_string(named.size()));
  }
  // Stage phase: parse and validate every tensor against the destination
  // before touching any of its storage, so a failure anywhere leaves the
  // module byte-identical to its pre-call state.
  staged->values.assign(named.size(), {});
  for (size_t i = 0; i < named.size(); ++i) {
    const auto& [name, tensor] = named[i];
    std::string stored_name;
    uint32_t rows = 0, cols = 0;
    if (!ReadString(is, &stored_name)) {
      return util::DataLossError("module stream truncated in name of tensor " +
                                 std::to_string(i) + " ('" + name + "')");
    }
    if (stored_name != name) {
      return util::FailedPreconditionError(
          "tensor " + std::to_string(i) + " is named '" + stored_name +
          "' in the stream but '" + name + "' in the module");
    }
    if (!ReadU32(is, &rows) || !ReadU32(is, &cols)) {
      return util::DataLossError("module stream truncated in shape of '" +
                                 name + "'");
    }
    if (static_cast<int>(rows) != tensor.rows() ||
        static_cast<int>(cols) != tensor.cols()) {
      return util::FailedPreconditionError(
          "tensor '" + name + "' is [" + std::to_string(rows) + ", " +
          std::to_string(cols) + "] in the stream but [" +
          std::to_string(tensor.rows()) + ", " + std::to_string(tensor.cols()) +
          "] in the module");
    }
    staged->values[i].resize(static_cast<size_t>(tensor.numel()));
    is.read(
        reinterpret_cast<char*>(staged->values[i].data()),
        static_cast<std::streamsize>(staged->values[i].size() * sizeof(float)));
    if (!is) {
      return util::DataLossError("module stream truncated in data of '" +
                                 name + "'");
    }
  }
  return util::OkStatus();
}

void CommitModule(Module* module, StagedModule&& staged) {
  auto named = module->NamedParameters();
  for (size_t i = 0; i < named.size(); ++i) {
    named[i].second.value() = std::move(staged.values[i]);
  }
}

}  // namespace internal

util::Status LoadModuleStatus(Module* module, std::istream& is) {
  if (util::Status s = util::InjectFault("module.load.read"); !s.ok()) {
    return s;
  }
  internal::StagedModule staged;
  if (util::Status s = internal::StageModule(module, is, &staged); !s.ok()) {
    return s;
  }
  internal::CommitModule(module, std::move(staged));
  return util::OkStatus();
}

util::Status SaveModuleToFileStatus(const Module& module,
                                    const std::string& path) {
  std::ostringstream os(std::ios::binary);
  SaveModule(module, os);
  return util::WriteFileAtomic(path, os.str(), "module.save");
}

util::Status LoadModuleFromFileStatus(Module* module, const std::string& path) {
  if (util::Status s = util::InjectFault("module.load.open"); !s.ok()) {
    return s;
  }
  std::ifstream is(path, std::ios::binary);
  if (!is) return util::NotFoundError("cannot open '" + path + "'");
  util::Status s = LoadModuleStatus(module, is);
  if (!s.ok()) {
    return util::Status(s.code(), "'" + path + "': " + s.message());
  }
  return s;
}

bool LoadModule(Module* module, std::istream& is) {
  return LoadModuleStatus(module, is).ok();
}

bool SaveModuleToFile(const Module& module, const std::string& path) {
  return SaveModuleToFileStatus(module, path).ok();
}

bool LoadModuleFromFile(Module* module, const std::string& path) {
  return LoadModuleFromFileStatus(module, path).ok();
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
