#ifndef QPE_UTIL_DURABLE_FILE_H_
#define QPE_UTIL_DURABLE_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace qpe::util {

// The one crash-safe file layer. Every artifact that must outlive the
// process — training checkpoints, warm-state snapshots, adaptation slices
// and manifests, module weight files, executed-query datasets — is written
// through WriteFileAtomic, and the framed ones are read back through
// ReadFramedFile.
//
// Writes: the bytes go to `path + ".tmp"`, which is fsync'd and then
// atomically renamed over `path`; the parent directory is fsync'd after the
// rename so the rename itself survives power loss. A crash at any moment
// leaves either the previous file or the new one, never a torn file, and a
// failed write removes its temp file.
//
// Framed files carry a 20-byte header ahead of their payload:
//
//   magic u32 | version u32 | payload_size u64 | payload_crc u32
//
// (native byte order, CRC-32 over the payload only). ReadFramedFile returns the
// payload or one of these errors, each naming `what` and the path:
//
//   missing file               kNotFound
//   shorter than the header    kDataLoss
//   bad magic                  kDataLoss           "bad magic"
//   size mismatch              kDataLoss           "payload"
//   CRC mismatch               kDataLoss           "CRC mismatch"
//   version skew               kFailedPrecondition "format version"
//
// Fault sites (util/fault_injection.h): a writer passes a stable `site`
// name and fires "<site>.open_tmp", "<site>.write", "<site>.flush" and
// "<site>.rename"; a reader fires "<site>.read.open" and "<site>.read".

// magic + version + payload_size + payload_crc
inline constexpr size_t kFramedHeaderSize = 4 + 4 + 8 + 4;

// True if a regular file exists at `path` (a cheap resume probe).
bool FileExists(const std::string& path);

Status WriteFileAtomic(const std::string& path, std::string_view bytes,
                       std::string_view site);

// Prepends the framed header to `payload`, then calls WriteFileAtomic.
Status WriteFramedFileAtomic(const std::string& path, uint32_t magic,
                             uint32_t version, std::string_view payload,
                             std::string_view site);

// Reads and validates a framed file; returns its payload.
StatusOr<std::string> ReadFramedFile(const std::string& path, uint32_t magic,
                                     uint32_t version, std::string_view what,
                                     std::string_view site);

// --- Payload encoding -------------------------------------------------------
//
// Native-endian fixed-width fields appended to an in-memory payload; the
// matching PayloadReader reads them back bounds-checked.

inline void PutBytes(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}
inline void PutU32(std::string* out, uint32_t v) { PutBytes(out, &v, 4); }
inline void PutU64(std::string* out, uint64_t v) { PutBytes(out, &v, 8); }
inline void PutI64(std::string* out, int64_t v) { PutBytes(out, &v, 8); }
inline void PutF32(std::string* out, float v) { PutBytes(out, &v, 4); }
inline void PutF64(std::string* out, double v) { PutBytes(out, &v, 8); }
// u32 length, then the bytes.
inline void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// Bounds-checked reader over a payload. Every failure is kDataLoss and
// names the payload (`what`), the field and the byte offset, e.g.
// "warm state payload truncated reading entry key at offset 20 (need 8
// byte(s), have 3)", so a corrupt file is diagnosable.
class PayloadReader {
 public:
  // `data` must outlive the reader.
  PayloadReader(std::string_view data, std::string_view what)
      : data_(data), what_(what) {}

  Status Bytes(void* out, size_t size, const char* field);
  Status U32(uint32_t* v, const char* field) { return Bytes(v, 4, field); }
  Status U64(uint64_t* v, const char* field) { return Bytes(v, 8, field); }
  Status I64(int64_t* v, const char* field) { return Bytes(v, 8, field); }
  Status F32(float* v, const char* field) { return Bytes(v, 4, field); }
  Status F64(double* v, const char* field) { return Bytes(v, 8, field); }
  // Reads a PutString field.
  Status Str(std::string* s, const char* field);
  // Fails if bytes remain after the last field, `after`.
  Status Finish(const char* after) const;

  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status Truncated(size_t size, const char* field) const;

  std::string_view data_;
  std::string_view what_;
  size_t pos_ = 0;
};

}  // namespace qpe::util

#endif  // QPE_UTIL_DURABLE_FILE_H_
