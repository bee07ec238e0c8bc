#include "serve/warm_state.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/stat.h>

#ifdef __unix__
#include <fcntl.h>
#include <unistd.h>
#endif

#include "nn/simd.h"
#include "util/checksum.h"
#include "util/fault_injection.h"

namespace qpe::serve {

namespace {

constexpr uint32_t kWarmMagic = 0x57455051;  // "QPEW" little-endian
constexpr uint32_t kWarmVersion = 2;  // 2: the arithmetic stamp
constexpr size_t kHeaderSize = 4 + 4 + 8 + 4;

void PutBytes(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}
void PutU32(std::string* out, uint32_t v) { PutBytes(out, &v, sizeof(v)); }
void PutU64(std::string* out, uint64_t v) { PutBytes(out, &v, sizeof(v)); }

#ifdef __unix__
util::Status FsyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return util::IoError("cannot reopen '" + path + "' for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return util::IoError("fsync of '" + path + "' failed");
  return util::OkStatus();
}
#endif

}  // namespace

bool WarmStateExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

util::Status SaveWarmState(const std::string& path, const WarmState& state) {
  std::string payload;
  payload.reserve(20 + state.entries.size() *
                           (8 + state.dim * sizeof(float)));
  PutU64(&payload, state.model_fingerprint);
  PutU32(&payload, nn::simd::ArithmeticStamp());
  PutU32(&payload, state.dim);
  PutU32(&payload, static_cast<uint32_t>(state.entries.size()));
  for (const auto& [key, embedding] : state.entries) {
    if (embedding.size() != state.dim) {
      return util::InvalidArgumentError(
          "warm-state entry has " + std::to_string(embedding.size()) +
          " float(s), expected dim " + std::to_string(state.dim));
    }
    PutU64(&payload, key);
    PutBytes(&payload, embedding.data(), embedding.size() * sizeof(float));
  }
  const uint32_t crc = util::Crc32(payload);

  const std::string tmp_path = path + ".tmp";
  // Any failure past this point must not leave a stray temp file behind.
  auto fail = [&tmp_path](util::Status s) {
    std::remove(tmp_path.c_str());
    return s;
  };
  if (util::Status s = util::InjectFault("warm_state.open_tmp"); !s.ok()) {
    return fail(std::move(s));
  }
  {
    std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
    if (!os) {
      return util::IoError("cannot open '" + tmp_path + "' for writing");
    }
    std::string header;
    PutU32(&header, kWarmMagic);
    PutU32(&header, kWarmVersion);
    PutU64(&header, payload.size());
    PutU32(&header, crc);
    os.write(header.data(), static_cast<std::streamsize>(header.size()));
    if (util::Status s = util::InjectFault("warm_state.write"); !s.ok()) {
      return fail(std::move(s));
    }
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    os.flush();
    if (util::Status s = util::InjectFault("warm_state.flush"); !s.ok()) {
      return fail(std::move(s));
    }
    if (!os) return fail(util::IoError("write to '" + tmp_path + "' failed"));
  }
#ifdef __unix__
  // Durability: the data must be on disk *before* the rename publishes it.
  if (util::Status s = FsyncPath(tmp_path); !s.ok()) return fail(std::move(s));
#endif
  if (util::Status s = util::InjectFault("warm_state.rename"); !s.ok()) {
    return fail(std::move(s));
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return fail(util::IoError("atomic rename '" + tmp_path + "' -> '" + path +
                              "' failed"));
  }
  return util::OkStatus();
}

util::Status LoadWarmState(const std::string& path,
                           uint64_t expected_fingerprint, WarmState* state) {
  if (util::Status s = util::InjectFault("warm_state.read.open"); !s.ok()) {
    return s;
  }
  std::ifstream is(path, std::ios::binary);
  if (!is) return util::NotFoundError("cannot open warm state '" + path + "'");
  std::ostringstream buffer(std::ios::binary);
  buffer << is.rdbuf();
  if (util::Status s = util::InjectFault("warm_state.read"); !s.ok()) return s;
  if (is.bad()) return util::IoError("read of warm state '" + path + "' failed");
  const std::string file = buffer.str();

  if (file.size() < kHeaderSize) {
    return util::DataLossError("warm state '" + path + "' is " +
                               std::to_string(file.size()) +
                               " byte(s), smaller than the header");
  }
  uint32_t magic = 0, version = 0, crc = 0;
  uint64_t payload_size = 0;
  std::memcpy(&magic, file.data(), 4);
  std::memcpy(&version, file.data() + 4, 4);
  std::memcpy(&payload_size, file.data() + 8, 8);
  std::memcpy(&crc, file.data() + 16, 4);
  if (magic != kWarmMagic) {
    return util::DataLossError("warm state '" + path + "' has bad magic");
  }
  if (version != kWarmVersion) {
    return util::DataLossError("warm state '" + path + "' has version " +
                               std::to_string(version) + ", expected " +
                               std::to_string(kWarmVersion));
  }
  if (file.size() - kHeaderSize != payload_size) {
    return util::DataLossError(
        "warm state '" + path + "' payload is " +
        std::to_string(file.size() - kHeaderSize) + " byte(s), header claims " +
        std::to_string(payload_size));
  }
  const std::string_view payload(file.data() + kHeaderSize, payload_size);
  if (util::Crc32(payload) != crc) {
    return util::DataLossError("warm state '" + path + "' payload CRC mismatch");
  }

  // Stage everything before committing to *state.
  WarmState staged;
  size_t pos = 0;
  auto read_bytes = [&](void* out, size_t size,
                        const char* what) -> util::Status {
    if (size > payload.size() - pos) {
      return util::DataLossError(std::string("warm state truncated reading ") +
                                 what + " at offset " + std::to_string(pos));
    }
    std::memcpy(out, payload.data() + pos, size);
    pos += size;
    return util::OkStatus();
  };
  if (util::Status s = read_bytes(&staged.model_fingerprint, 8, "fingerprint");
      !s.ok())
    return s;
  uint32_t arithmetic = 0;
  if (util::Status s = read_bytes(&arithmetic, 4, "arithmetic stamp");
      !s.ok())
    return s;
  if (util::Status s = read_bytes(&staged.dim, 4, "dim"); !s.ok()) return s;
  uint32_t count = 0;
  if (util::Status s = read_bytes(&count, 4, "entry count"); !s.ok()) return s;
  const size_t entry_bytes = 8 + static_cast<size_t>(staged.dim) * sizeof(float);
  if (staged.dim == 0 || count > (payload.size() - pos) / entry_bytes) {
    return util::DataLossError(
        "warm state claims " + std::to_string(count) + " entries of dim " +
        std::to_string(staged.dim) + " but only " +
        std::to_string(payload.size() - pos) + " byte(s) remain");
  }
  staged.entries.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (util::Status s = read_bytes(&staged.entries[i].first, 8, "entry key");
        !s.ok())
      return s;
    staged.entries[i].second.resize(staged.dim);
    if (util::Status s =
            read_bytes(staged.entries[i].second.data(),
                       staged.dim * sizeof(float), "entry embedding");
        !s.ok())
      return s;
  }
  if (pos != payload.size()) {
    return util::DataLossError("warm state has " +
                               std::to_string(payload.size() - pos) +
                               " trailing byte(s)");
  }
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

uint64_t QuantizedModelFingerprint(const nn::Module& fp32) {
  // A fixed tag keeps the two engines' caches mutually exclusive; the
  // constant is arbitrary but stable across builds.
  return ModelFingerprint(fp32) ^ 0x5154385F5154385FULL;  // "QT8_QT8_"
}

}  // namespace qpe::serve
