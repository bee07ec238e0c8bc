#include "serve/warm_state.h"

#include <utility>

#include "nn/simd.h"
#include "util/bytes.h"
#include "util/checksum.h"
#include "util/durable_file.h"

namespace qpe::serve {

namespace {

constexpr uint32_t kWarmMagic = 0x57455051;  // "QPEW" little-endian
constexpr uint32_t kWarmVersion = 2;  // 2: the arithmetic stamp

}  // namespace

util::Status SaveWarmState(const std::string& path, const WarmState& state) {
  std::string payload;
  payload.reserve(20 + state.entries.size() *
                           (8 + state.dim * sizeof(float)));
  util::PutU64(&payload, state.model_fingerprint);
  util::PutU32(&payload, nn::simd::ArithmeticStamp());
  util::PutU32(&payload, state.dim);
  util::PutU32(&payload, static_cast<uint32_t>(state.entries.size()));
  for (const auto& [key, embedding] : state.entries) {
    if (embedding.size() != state.dim) {
      return util::InvalidArgumentError(
          "warm-state entry has " + std::to_string(embedding.size()) +
          " float(s), expected dim " + std::to_string(state.dim));
    }
    util::PutU64(&payload, key);
    util::PutBytes(&payload, embedding.data(),
                   embedding.size() * sizeof(float));
  }
  return util::WriteFramedFileAtomic(path, kWarmMagic, kWarmVersion, payload,
                                     "warm_state");
}

util::Status LoadWarmState(const std::string& path,
                           uint64_t expected_fingerprint, WarmState* state) {
  util::StatusOr<std::string> payload = util::ReadFramedFile(
      path, kWarmMagic, kWarmVersion, "warm state", "warm_state");
  if (!payload.ok()) return payload.status();

  // Stage everything before committing to *state.
  WarmState staged;
  util::PayloadReader reader(*payload, "warm state");
  uint32_t arithmetic = 0;
  uint32_t count = 0;
  util::Status s;
  if (s = reader.U64(&staged.model_fingerprint, "fingerprint"); !s.ok())
    return s;
  if (s = reader.U32(&arithmetic, "arithmetic stamp"); !s.ok()) return s;
  if (s = reader.U32(&staged.dim, "dim"); !s.ok()) return s;
  if (s = reader.U32(&count, "entry count"); !s.ok()) return s;
  const size_t entry_bytes = 8 + static_cast<size_t>(staged.dim) * sizeof(float);
  if (staged.dim == 0 || count > reader.remaining() / entry_bytes) {
    return util::DataLossError(
        "warm state claims " + std::to_string(count) + " entries of dim " +
        std::to_string(staged.dim) + " but only " +
        std::to_string(reader.remaining()) + " byte(s) remain");
  }
  staged.entries.resize(count);
  for (auto& [key, embedding] : staged.entries) {
    if (s = reader.U64(&key, "entry key"); !s.ok()) return s;
    embedding.resize(staged.dim);
    if (s = reader.Bytes(embedding.data(), staged.dim * sizeof(float),
                         "entry embedding");
        !s.ok())
      return s;
  }
  if (s = reader.Finish("entries"); !s.ok()) return s;
  if (expected_fingerprint != 0 &&
      staged.model_fingerprint != expected_fingerprint) {
    return util::FailedPreconditionError(
        "warm state '" + path + "' was produced by model fingerprint " +
        std::to_string(staged.model_fingerprint) + ", serving model is " +
        std::to_string(expected_fingerprint) + " — starting cold");
  }
  if (arithmetic != nn::simd::ArithmeticStamp()) {
    return util::FailedPreconditionError(
        "warm state '" + path + "' was encoded under kernel arithmetic " +
        std::to_string(arithmetic) + ", this process runs " +
        std::to_string(nn::simd::ArithmeticStamp()) + " — starting cold");
  }
  *state = std::move(staged);
  return util::OkStatus();
}

uint64_t ModelFingerprint(const nn::Module& module) {
  uint32_t crc = 0;
  uint64_t params = 0;
  for (const auto& [name, tensor] : module.NamedParameters()) {
    crc = util::Crc32(name.data(), name.size(), crc);
    crc = util::Crc32(tensor.value().data(),
                      tensor.value().size() * sizeof(float), crc);
    ++params;
  }
  return (params << 32) | crc;
}

}  // namespace qpe::serve
