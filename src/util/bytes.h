#ifndef QPE_UTIL_BYTES_H_
#define QPE_UTIL_BYTES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/status.h"

namespace qpe::util {

// The one binary codec: module files, framed files and their payloads, and
// wire frames are written with Put* and read back with PayloadReader.
// Fields are copied in native order and the formats promise little-endian,
// so a big-endian build must not compile.
static_assert(std::endian::native == std::endian::little,
              "util/bytes.h writes native order; formats are little-endian");

inline void PutBytes(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}
inline void PutU8(std::string* out, uint8_t v) { PutBytes(out, &v, 1); }
inline void PutU16(std::string* out, uint16_t v) { PutBytes(out, &v, 2); }
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
// byte(s), have 3)". A length is checked against the bytes that remain
// before anything is sized by it.
class PayloadReader {
 public:
  // `data` must outlive the reader.
  PayloadReader(std::string_view data, std::string_view what)
      : data_(data), what_(what) {}

  Status Bytes(void* out, size_t size, const char* field) {
    if (size > remaining()) return Truncated(size, field);
    std::memcpy(out, data_.data() + pos_, size);
    pos_ += size;
    return OkStatus();
  }
  // Zero-copy: points *out at the next `size` bytes of the payload.
  Status View(std::string_view* out, size_t size, const char* field) {
    if (size > remaining()) return Truncated(size, field);
    *out = data_.substr(pos_, size);
    pos_ += size;
    return OkStatus();
  }
  Status U8(uint8_t* v, const char* field) { return Bytes(v, 1, field); }
  Status U16(uint16_t* v, const char* field) { return Bytes(v, 2, field); }
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

#endif  // QPE_UTIL_BYTES_H_
