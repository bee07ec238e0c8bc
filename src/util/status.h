#ifndef QPE_UTIL_STATUS_H_
#define QPE_UTIL_STATUS_H_

#include <cassert>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace qpe::util {

// Lightweight error propagation for IO and serialization paths. A Status is
// either OK or an (code, message) pair where the message carries the
// diagnostic a caller needs to act — which line, tensor, or byte offset
// failed — instead of the seed code's indistinguishable `false` / empty
// vector. StatusOr<T> bundles a Status with a value for parse-style APIs.

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,    // caller passed something unusable
  kNotFound,           // missing file / missing key
  kDataLoss,           // corruption detected (CRC, truncation, bad magic)
  kFailedPrecondition, // state does not admit the operation (shape mismatch)
  kIo,                 // read/write/rename/flush failure
  kInternal,
};

const char* StatusCodeName(StatusCode code);

class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "DATA_LOSS: checkpoint payload CRC mismatch ..." (or "OK").
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline Status OkStatus() { return Status::Ok(); }
inline Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
inline Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
inline Status DataLossError(std::string message) {
  return Status(StatusCode::kDataLoss, std::move(message));
}
inline Status FailedPreconditionError(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}
inline Status IoError(std::string message) {
  return Status(StatusCode::kIo, std::move(message));
}

// Minimal StatusOr: holds a value iff status().ok(). value() on a non-OK
// StatusOr asserts in debug builds and returns a default-constructed T
// reference otherwise, so misuse is loud in tests without exceptions.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "OK StatusOr must carry a value");
  }
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() {
    assert(ok());
    return value_;
  }
  const T& value() const {
    assert(ok());
    return value_;
  }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  Status status_;
  T value_{};
};

// Recoverable-warning channel: the middle ground between a hard Status and
// silence. Lenient parsers/ingestors push one formatted entry per defect
// they repaired; the log caps its size so a pathological input (a fuzzed
// 10k-line EXPLAIN where every line is broken) cannot balloon memory — the
// overflow is counted, not stored.
class WarningLog {
 public:
  WarningLog() = default;
  explicit WarningLog(size_t capacity) : capacity_(capacity) {}

  void Add(std::string message) {
    ++total_;
    if (entries_.size() < capacity_) entries_.push_back(std::move(message));
  }

  bool empty() const { return total_ == 0; }
  // Warnings raised, including any dropped past the capacity.
  size_t total() const { return total_; }
  size_t dropped() const { return total_ - entries_.size(); }
  const std::vector<std::string>& entries() const { return entries_; }

  // One warning per line; notes the dropped count when the log overflowed.
  std::string ToString() const;

 private:
  size_t capacity_ = 64;
  size_t total_ = 0;
  std::vector<std::string> entries_;
};

}  // namespace qpe::util

#endif  // QPE_UTIL_STATUS_H_
