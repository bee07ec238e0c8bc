#include "serve/wire_protocol.h"

#include <algorithm>
#include <utility>

#include "util/bytes.h"

namespace qpe::serve {

namespace {

bool KnownFrameType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kEncodeRequest:
    case FrameType::kStatsRequest:
    case FrameType::kPingRequest:
    case FrameType::kEncodeResponse:
    case FrameType::kStatsResponse:
    case FrameType::kPongResponse:
    case FrameType::kErrorResponse:
      return true;
  }
  return false;
}

// Reads the encode-request head and validates its plan count, leaving the
// reader at the first plan.
util::Status ReadEncodeRequestHead(util::PayloadReader& reader,
                                   size_t max_plans, EncodeRequestHead* head) {
  uint16_t tenant_len = 0;
  std::string_view tenant;
  util::Status s = reader.U16(&tenant_len, "tenant length");
  if (s.ok()) s = reader.View(&tenant, tenant_len, "tenant name");
  if (s.ok()) s = reader.U32(&head->deadline_ms, "deadline_ms");
  if (s.ok()) s = reader.U32(&head->plan_count, "plan count");
  if (!s.ok()) return s;
  head->tenant.assign(tenant);
  if (head->plan_count == 0) {
    return util::InvalidArgumentError("encode request carries zero plans");
  }
  if (head->plan_count > max_plans) {
    return util::InvalidArgumentError(
        "encode request carries " + std::to_string(head->plan_count) +
        " plan(s), above the " + std::to_string(max_plans) + "-plan limit");
  }
  return util::OkStatus();
}

}  // namespace

const char* WireErrorName(WireError code) {
  switch (code) {
    case WireError::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case WireError::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case WireError::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case WireError::kUnavailable:
      return "UNAVAILABLE";
    case WireError::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

std::string EncodeFrame(FrameType type, std::string_view payload,
                        uint8_t version) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  util::PutU32(&out, kWireMagic);
  util::PutU8(&out, version);
  util::PutU8(&out, static_cast<uint8_t>(type));
  util::PutU16(&out, 0);  // reserved
  util::PutU32(&out, static_cast<uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

util::Status ParseFrameHeader(std::string_view header, FrameHeader* out) {
  util::PayloadReader reader(header.substr(0, kFrameHeaderSize),
                             "frame header");
  uint32_t magic = 0;
  uint8_t type = 0;
  uint16_t reserved = 0;
  util::Status s = reader.U32(&magic, "magic");
  if (s.ok()) s = reader.U8(&out->version, "version");
  if (s.ok()) s = reader.U8(&type, "type");
  if (s.ok()) s = reader.U16(&reserved, "reserved bits");
  if (s.ok()) s = reader.U32(&out->payload_size, "payload size");
  if (!s.ok()) return s;
  if (magic != kWireMagic) return util::DataLossError("bad frame magic");
  if (out->version < kWireVersionMin || out->version > kWireVersion) {
    return util::DataLossError("unsupported frame version " +
                               std::to_string(out->version));
  }
  if (reserved != 0) {
    return util::DataLossError("non-zero reserved frame bits");
  }
  if (!KnownFrameType(type)) {
    return util::DataLossError("unknown frame type " + std::to_string(type));
  }
  out->type = static_cast<FrameType>(type);
  return util::OkStatus();
}

FrameParse NextFrame(std::string_view buf, size_t max_payload, Frame* out,
                     size_t* consumed, util::Status* error) {
  *consumed = 0;
  if (buf.size() < kFrameHeaderSize) {
    // Reject garbage as early as possible: a wrong magic prefix can never
    // grow into a valid frame. The magic's bytes are little-endian.
    for (size_t i = 0; i < std::min<size_t>(buf.size(), 4); ++i) {
      if (static_cast<uint8_t>(buf[i]) !=
          static_cast<uint8_t>(kWireMagic >> (8 * i))) {
        *error = util::DataLossError("bad frame magic");
        return FrameParse::kError;
      }
    }
    return FrameParse::kNeedMore;
  }
  FrameHeader header;
  if (util::Status s = ParseFrameHeader(buf, &header); !s.ok()) {
    *error = std::move(s);
    return FrameParse::kError;
  }
  if (header.payload_size > max_payload) {
    *error = util::InvalidArgumentError(
        "frame payload of " + std::to_string(header.payload_size) +
        " byte(s) exceeds the " + std::to_string(max_payload) + "-byte limit");
    return FrameParse::kError;
  }
  if (buf.size() - kFrameHeaderSize < header.payload_size) {
    return FrameParse::kNeedMore;
  }
  out->type = header.type;
  out->version = header.version;
  out->payload.assign(buf.substr(kFrameHeaderSize, header.payload_size));
  *consumed = kFrameHeaderSize + header.payload_size;
  return FrameParse::kFrame;
}

std::string EncodeEncodeRequestPayload(const EncodeRequest& request) {
  std::string out;
  util::PutU16(&out, static_cast<uint16_t>(request.tenant.size()));
  out.append(request.tenant);
  util::PutU32(&out, request.deadline_ms);
  util::PutU32(&out, static_cast<uint32_t>(request.plans.size()));
  for (const std::string& plan : request.plans) util::PutString(&out, plan);
  return out;
}

util::StatusOr<EncodeRequestHead> PeekEncodeRequestHead(
    std::string_view payload, size_t max_plans) {
  util::PayloadReader reader(payload, "encode request");
  EncodeRequestHead head;
  if (util::Status s = ReadEncodeRequestHead(reader, max_plans, &head); !s.ok())
    return s;
  return head;
}

util::StatusOr<EncodeRequest> ParseEncodeRequestPayload(
    std::string_view payload, size_t max_plans) {
  util::PayloadReader reader(payload, "encode request");
  EncodeRequestHead head;
  if (util::Status s = ReadEncodeRequestHead(reader, max_plans, &head); !s.ok())
    return s;
  EncodeRequest request;
  request.tenant = std::move(head.tenant);
  request.deadline_ms = head.deadline_ms;
  request.plans.resize(head.plan_count);
  for (std::string& plan : request.plans) {
    if (util::Status s = reader.Str(&plan, "plan"); !s.ok()) return s;
  }
  if (util::Status s = reader.Finish("the last plan"); !s.ok()) return s;
  return request;
}

std::string EncodeEncodeResponsePayload(const EncodeResponse& response,
                                        uint8_t version) {
  std::string out;
  util::PutU32(&out, static_cast<uint32_t>(response.embeddings.size()));
  util::PutU32(&out, response.dim);
  for (const std::vector<float>& row : response.embeddings) {
    util::PutBytes(&out, row.data(), row.size() * sizeof(float));
  }
  if (version >= 2) {
    util::PutU8(&out, response.stale ? 1 : 0);
    util::PutU8(&out, response.drift_state);
    util::PutF32(&out, response.drift_score);
  }
  return out;
}

util::StatusOr<EncodeResponse> ParseEncodeResponsePayload(
    std::string_view payload) {
  util::PayloadReader reader(payload, "encode response");
  EncodeResponse response;
  uint32_t count = 0;
  util::Status s = reader.U32(&count, "embedding count");
  if (s.ok()) s = reader.U32(&response.dim, "embedding dim");
  if (!s.ok()) return s;
  const size_t row_bytes = static_cast<size_t>(response.dim) * sizeof(float);
  if (row_bytes == 0 || count > reader.remaining() / row_bytes) {
    return util::DataLossError(
        "encode response claims " + std::to_string(count) + " x " +
        std::to_string(response.dim) + " floats but only " +
        std::to_string(reader.remaining()) + " byte(s) remain");
  }
  response.embeddings.resize(count);
  for (std::vector<float>& row : response.embeddings) {
    row.resize(response.dim);
    if (s = reader.Bytes(row.data(), row_bytes, "embedding row"); !s.ok())
      return s;
  }
  // Version auto-detect: a v1 payload ends exactly at the rows; a v2
  // payload carries the 6-byte drift trailer. Any other remainder is a
  // malformed frame.
  if (reader.remaining() == 0) return response;
  constexpr size_t kDriftTrailerSize = 1 + 1 + sizeof(float);
  if (reader.remaining() != kDriftTrailerSize) {
    return reader.Finish("the embedding rows");
  }
  uint8_t stale = 0;
  s = reader.U8(&stale, "stale flag");
  if (s.ok()) s = reader.U8(&response.drift_state, "drift state");
  if (s.ok()) s = reader.F32(&response.drift_score, "drift score");
  if (!s.ok()) return s;
  response.stale = stale != 0;
  return response;
}

std::string EncodeErrorResponsePayload(const ErrorResponse& error) {
  std::string out;
  util::PutU16(&out, static_cast<uint16_t>(error.code));
  util::PutU32(&out, error.retry_after_ms);
  util::PutString(&out, error.message);
  return out;
}

util::StatusOr<ErrorResponse> ParseErrorResponsePayload(
    std::string_view payload) {
  util::PayloadReader reader(payload, "error response");
  ErrorResponse error;
  uint16_t code = 0;
  util::Status s = reader.U16(&code, "error code");
  if (s.ok()) s = reader.U32(&error.retry_after_ms, "retry_after_ms");
  if (s.ok()) s = reader.Str(&error.message, "message");
  if (s.ok()) s = reader.Finish("the message");
  if (!s.ok()) return s;
  error.code = static_cast<WireError>(code);
  return error;
}

}  // namespace qpe::serve
