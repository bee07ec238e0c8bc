#include "util/bytes.h"

namespace qpe::util {

Status PayloadReader::Truncated(size_t size, const char* field) const {
  return DataLossError(std::string(what_) + " payload truncated reading " +
                       field + " at offset " + std::to_string(pos_) +
                       " (need " + std::to_string(size) + " byte(s), have " +
                       std::to_string(remaining()) + ")");
}

Status PayloadReader::Str(std::string* s, const char* field) {
  uint32_t len = 0;
  std::string_view bytes;
  if (Status st = U32(&len, field); !st.ok()) return st;
  if (Status st = View(&bytes, len, field); !st.ok()) return st;
  s->assign(bytes);
  return OkStatus();
}

Status PayloadReader::Finish(const char* after) const {
  if (remaining() == 0) return OkStatus();
  return DataLossError(std::string(what_) + " payload has " +
                       std::to_string(remaining()) +
                       " trailing byte(s) after " + after);
}

}  // namespace qpe::util
