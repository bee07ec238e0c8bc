#include "util/durable_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/bytes.h"
#include "util/checksum.h"
#include "util/fault_injection.h"

namespace qpe::util {

namespace {

// Owns a file descriptor. Close() reports the result the destructor drops.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool Close() {
    const int rc = ::close(fd_);
    fd_ = -1;
    return rc == 0;
  }

 private:
  int fd_;
};

Status Fault(std::string_view site, const char* step) {
  return InjectFault(std::string(site) + "." + step);
}

Status WriteAll(int fd, std::string_view bytes, const std::string& path) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError("write to '" + path + "' failed: " + std::strerror(errno));
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return OkStatus();
}

// POSIX makes a rename durable only once its directory is fsync'd.
Status FsyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const Fd fd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
  if (fd.get() < 0) {
    return IoError("cannot open directory '" + dir + "' for fsync");
  }
  if (::fsync(fd.get()) != 0) {
    return IoError("fsync of directory '" + dir + "' failed");
  }
  return OkStatus();
}

}  // namespace

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes,
                       std::string_view site) {
  const std::string tmp_path = path + ".tmp";
  // Any failure before the rename must not leave a stray temp file behind:
  // a failed save publishes nothing.
  auto fail = [&tmp_path](Status s) {
    std::remove(tmp_path.c_str());
    return s;
  };
  if (Status s = Fault(site, "open_tmp"); !s.ok()) return fail(std::move(s));
  Fd fd(::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0666));
  if (fd.get() < 0) {
    return fail(IoError("cannot open '" + tmp_path + "' for writing"));
  }
  // The write fault lands mid-file, leaving a torn temp file to clean up.
  const size_t half = bytes.size() / 2;
  Status s = WriteAll(fd.get(), bytes.substr(0, half), tmp_path);
  if (s.ok()) s = Fault(site, "write");
  if (s.ok()) s = WriteAll(fd.get(), bytes.substr(half), tmp_path);
  if (s.ok()) s = Fault(site, "flush");
  // Durability: the data must be on disk *before* the rename publishes it.
  if (s.ok() && ::fsync(fd.get()) != 0) {
    s = IoError("fsync of '" + tmp_path + "' failed");
  }
  if (s.ok() && !fd.Close()) s = IoError("close of '" + tmp_path + "' failed");
  if (s.ok()) s = Fault(site, "rename");
  if (s.ok() && std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    s = IoError("atomic rename '" + tmp_path + "' -> '" + path + "' failed");
  }
  if (!s.ok()) return fail(std::move(s));
  return FsyncParentDirectory(path);
}

Status WriteFramedFileAtomic(const std::string& path, uint32_t magic,
                             uint32_t version, std::string_view payload,
                             std::string_view site) {
  std::string file;
  file.reserve(kFramedHeaderSize + payload.size());
  PutU32(&file, magic);
  PutU32(&file, version);
  PutU64(&file, payload.size());
  PutU32(&file, Crc32(payload));
  file.append(payload);
  return WriteFileAtomic(path, file, site);
}

StatusOr<std::string> ReadWholeFile(const std::string& path,
                                    std::string_view what) {
  const std::string named = std::string(what) + " '" + path + "'";
  const Fd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) {
    return errno == ENOENT ? NotFoundError("cannot open " + named)
                           : IoError("cannot open " + named + ": " +
                                     std::strerror(errno));
  }
  std::string file;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd.get(), buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return IoError("read of " + named + " failed");
    if (n == 0) break;
    file.append(buffer, static_cast<size_t>(n));
  }
  return file;
}

StatusOr<std::string> ReadFramedFile(const std::string& path, uint32_t magic,
                                     uint32_t version, std::string_view what,
                                     std::string_view site) {
  const std::string named = std::string(what) + " '" + path + "'";
  if (Status s = Fault(site, "read.open"); !s.ok()) return s;
  StatusOr<std::string> read = ReadWholeFile(path, what);
  if (!read.ok()) return read.status();
  if (Status s = Fault(site, "read"); !s.ok()) return s;
  std::string& file = *read;

  if (file.size() < kFramedHeaderSize) {
    return DataLossError(named + " is " + std::to_string(file.size()) +
                         " byte(s), smaller than the " +
                         std::to_string(kFramedHeaderSize) + "-byte header");
  }
  PayloadReader header(std::string_view(file).substr(0, kFramedHeaderSize),
                       named);
  uint32_t file_magic = 0, file_version = 0, crc = 0;
  uint64_t payload_size = 0;
  Status s = header.U32(&file_magic, "magic");
  if (s.ok()) s = header.U32(&file_version, "version");
  if (s.ok()) s = header.U64(&payload_size, "payload size");
  if (s.ok()) s = header.U32(&crc, "payload CRC");
  if (!s.ok()) return s;
  if (file_magic != magic) {
    return DataLossError(named + " has bad magic " +
                         std::to_string(file_magic) + ", expected " +
                         std::to_string(magic));
  }
  if (file_version != version) {
    return FailedPreconditionError(
        named + " is format version " + std::to_string(file_version) +
        ", this build reads version " + std::to_string(version));
  }
  if (file.size() - kFramedHeaderSize != payload_size) {
    return DataLossError(named + " header claims a " +
                         std::to_string(payload_size) + "-byte payload but " +
                         std::to_string(file.size() - kFramedHeaderSize) +
                         " byte(s) follow");
  }
  const uint32_t computed =
      Crc32(std::string_view(file).substr(kFramedHeaderSize));
  if (computed != crc) {
    return DataLossError(named + " payload CRC mismatch: stored " +
                         std::to_string(crc) + ", computed " +
                         std::to_string(computed) + " (corrupted file)");
  }
  file.erase(0, kFramedHeaderSize);
  return read;
}

}  // namespace qpe::util
