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
// through WriteFileAtomic. The framed ones are read back through
// ReadFramedFile, module weight files through ReadWholeFile.
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
// (util/bytes.h fields, CRC-32 over the payload only). ReadFramedFile returns
// the payload or one of these errors, each naming `what` and the path:
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

// Reads a whole file, unframed (module .qpe files). A missing file is
// kNotFound; other failures are kIo. Messages name `what` and the path. No
// fault site fires here: the caller owns its site names.
StatusOr<std::string> ReadWholeFile(const std::string& path,
                                    std::string_view what);

// Reads and validates a framed file; returns its payload.
StatusOr<std::string> ReadFramedFile(const std::string& path, uint32_t magic,
                                     uint32_t version, std::string_view what,
                                     std::string_view site);

}  // namespace qpe::util

#endif  // QPE_UTIL_DURABLE_FILE_H_
