#ifndef QPE_SERVE_WIRE_PROTOCOL_H_
#define QPE_SERVE_WIRE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace qpe::serve {

// Length-prefixed request/response protocol between qpe_served and its
// clients, over a Unix-domain stream socket. No third-party deps: frames
// are a fixed 12-byte header followed by a bounded payload, all fields
// little-endian (same-host IPC; the daemon never crosses byte orders).
// Every field is written with the util/bytes.h Put* helpers and read with
// util::PayloadReader, whose static_assert refuses a big-endian build; a
// "string" below is a u32 length followed by the bytes (util::PutString).
//
//   header:  magic u32 ("QPE1") | version u8 | type u8 | reserved u16 (0)
//            | payload_size u32
//   payload: per-type layout below
//
// The parser treats the wire as hostile: bad magic, unknown version or
// type, non-zero reserved bits, oversized or truncated payloads, and
// inner length fields pointing past the payload all yield a typed Status
// (never a crash or over-read) — fuzzed in daemon_test with
// util::MutateBytes.
//
// ENCODE request payload:
//   tenant_len u16 | tenant bytes | deadline_ms u32 | plan_count u32
//   | plan_count x { plan_len u32 | serialized plan s-expr }   (strings)
// deadline_ms is the request's time budget measured from daemon receipt;
// kNoDeadline disables it, 0 is already expired on arrival.
//
// ENCODE response payload: count u32 | dim u32 | count*dim f32 rows.
// In protocol version 2 the response grows an optional drift trailer:
//   ... rows | stale u8 | drift_state u8 | drift_score f32
// The trailer is version-negotiated per connection: the daemon replies in
// the version of the request frame, so a v1 client never sees the trailer
// and keeps parsing unchanged. The parser auto-detects by the exact
// remaining length after the rows (0 bytes → v1 defaults, 6 bytes → v2
// trailer, anything else → typed error).
// STATS  response payload: a JSON object (see ServingDaemon::StatsJson).
// ERROR  response payload:
//   code u16 (WireError) | retry_after_ms u32 | msg_len u32 | msg bytes
//   (the message is a string)
// retry_after_ms is the daemon's backoff hint; kRetryNever marks a request
// that will never be admitted (e.g. a zero-quota tenant).

inline constexpr uint32_t kWireMagic = 0x31455051;  // "QPE1" little-endian
// Current protocol version. The daemon accepts every version in
// [kWireVersionMin, kWireVersion] and answers each request in the version
// the request frame carried.
inline constexpr uint8_t kWireVersion = 2;
inline constexpr uint8_t kWireVersionMin = 1;
inline constexpr size_t kFrameHeaderSize = 12;
inline constexpr uint32_t kNoDeadline = 0xFFFFFFFFu;
inline constexpr uint32_t kRetryNever = 0xFFFFFFFFu;

enum class FrameType : uint8_t {
  // Requests.
  kEncodeRequest = 1,
  kStatsRequest = 2,
  kPingRequest = 3,
  // Responses.
  kEncodeResponse = 17,
  kStatsResponse = 18,
  kPongResponse = 19,
  kErrorResponse = 31,
};

// Typed error codes carried in ERROR frames. The names follow the usual
// RPC vocabulary; kResourceExhausted is the admission-control shed signal
// (quota or queue bound), kUnavailable means the daemon is draining.
enum class WireError : uint16_t {
  kInvalidArgument = 1,
  kResourceExhausted = 2,
  kDeadlineExceeded = 3,
  kUnavailable = 4,
  kInternal = 5,
};

const char* WireErrorName(WireError code);

struct Frame {
  FrameType type = FrameType::kPingRequest;
  uint8_t version = kWireVersion;  // as carried on the wire
  std::string payload;
};

// The one frame-header parser, shared by NextFrame and DaemonClient. It
// checks magic, version, reserved bits and frame type; every failure, and
// a `header` shorter than kFrameHeaderSize, is kDataLoss. The payload-size
// limit is the caller's.
struct FrameHeader {
  uint8_t version = kWireVersion;
  FrameType type = FrameType::kPingRequest;
  uint32_t payload_size = 0;
};
util::Status ParseFrameHeader(std::string_view header, FrameHeader* out);

// Serializes a complete frame (header + payload). `version` is stamped
// into the header; responders pass the version negotiated from the
// request frame so old clients keep parsing.
std::string EncodeFrame(FrameType type, std::string_view payload,
                        uint8_t version = kWireVersion);

// Incremental frame extraction from a receive buffer. Returns:
//   kNeedMore — `buf` holds a prefix of a valid frame; read more bytes.
//   kFrame    — one frame extracted into *out; *consumed bytes were used.
//   kError    — the buffer can never become a valid frame; *error says why
//               and the connection should be failed.
enum class FrameParse { kNeedMore, kFrame, kError };
FrameParse NextFrame(std::string_view buf, size_t max_payload, Frame* out,
                     size_t* consumed, util::Status* error);

struct EncodeRequest {
  std::string tenant;
  uint32_t deadline_ms = kNoDeadline;
  std::vector<std::string> plans;  // serialized plan s-expressions
};

std::string EncodeEncodeRequestPayload(const EncodeRequest& request);
// Bounds-checked inverse; `max_plans` guards against a hostile count field.
util::StatusOr<EncodeRequest> ParseEncodeRequestPayload(
    std::string_view payload, size_t max_plans);

// Cheap admission peek: extracts only tenant / deadline / plan count
// without copying the plan bodies (the IO thread admits on this; the
// worker parses the full request).
struct EncodeRequestHead {
  std::string tenant;
  uint32_t deadline_ms = kNoDeadline;
  uint32_t plan_count = 0;
};
util::StatusOr<EncodeRequestHead> PeekEncodeRequestHead(
    std::string_view payload, size_t max_plans);

struct EncodeResponse {
  uint32_t dim = 0;
  std::vector<std::vector<float>> embeddings;  // count rows of dim floats
  // v2 drift trailer. `stale` means the daemon's drift monitor has declared
  // the serving model stale for the live workload (state DRIFTED or
  // ADAPTING); drift_state is the raw drift::DriftState value and
  // drift_score the last fused window score. v1 responses leave defaults.
  bool stale = false;
  uint8_t drift_state = 0;
  float drift_score = 0.0f;
};

// `version` selects the payload layout: v1 omits the drift trailer so old
// clients parse the response unchanged; v2 appends it.
std::string EncodeEncodeResponsePayload(const EncodeResponse& response,
                                        uint8_t version = kWireVersion);
util::StatusOr<EncodeResponse> ParseEncodeResponsePayload(
    std::string_view payload);

struct ErrorResponse {
  WireError code = WireError::kInternal;
  uint32_t retry_after_ms = 0;
  std::string message;
};

std::string EncodeErrorResponsePayload(const ErrorResponse& error);
util::StatusOr<ErrorResponse> ParseErrorResponsePayload(
    std::string_view payload);

}  // namespace qpe::serve

#endif  // QPE_SERVE_WIRE_PROTOCOL_H_
