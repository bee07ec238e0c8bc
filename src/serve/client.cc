#include "serve/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "util/rng.h"

namespace qpe::serve {

namespace {

// Maps a typed daemon error to the Status a caller sees. kInvalidArgument
// keeps its code; everything else (shed, deadline, draining, internal) is a
// precondition of the daemon's current state, not of the caller's input.
util::Status WireErrorToStatus(const ErrorResponse& error) {
  std::string text = std::string("daemon: ") + WireErrorName(error.code) +
                     ": " + error.message;
  if (error.code == WireError::kInvalidArgument) {
    return util::InvalidArgumentError(std::move(text));
  }
  return util::FailedPreconditionError(std::move(text));
}

// True iff the typed error invites a retry. kRetryNever means the request
// can never be admitted (zero-quota tenant, request larger than the burst).
bool TypedErrorRetryable(const ErrorResponse& error) {
  if (error.retry_after_ms == kRetryNever) return false;
  return error.code == WireError::kResourceExhausted ||
         error.code == WireError::kUnavailable;
}

}  // namespace

util::StatusOr<DaemonClient> DaemonClient::Connect(
    const std::string& socket_path) {
  util::StatusOr<util::UniqueFd> fd = util::ConnectUnix(socket_path);
  if (!fd.ok()) return fd.status();
  DaemonClient client;
  client.fd_ = std::move(*fd);
  client.socket_path_ = socket_path;
  return client;
}

util::StatusOr<Frame> DaemonClient::RoundTrip(FrameType type,
                                              std::string_view payload) {
  if (!fd_.valid()) {
    return util::FailedPreconditionError("client is not connected");
  }
  const std::string frame = EncodeFrame(type, payload);
  if (util::Status s = util::WriteFull(fd_.get(), frame.data(), frame.size());
      !s.ok()) {
    fd_.Reset();
    return s;
  }

  char header[kFrameHeaderSize];
  if (util::Status s = util::ReadFull(fd_.get(), header, sizeof(header));
      !s.ok()) {
    fd_.Reset();
    if (s.code() == util::StatusCode::kNotFound) {
      // Clean hangup where a response was owed: the daemon dropped us
      // (protocol error, drain deadline, write timeout).
      return util::IoError("daemon closed the connection before responding");
    }
    return s;
  }
  FrameHeader parsed;
  if (util::Status s =
          ParseFrameHeader(std::string_view(header, sizeof(header)), &parsed);
      !s.ok()) {
    fd_.Reset();
    return util::DataLossError("daemon response has a corrupt frame header: " +
                               s.message());
  }
  if (parsed.payload_size > max_payload_bytes_) {
    fd_.Reset();
    return util::DataLossError("daemon response payload of " +
                               std::to_string(parsed.payload_size) +
                               " byte(s) exceeds the client limit");
  }
  Frame response;
  response.type = parsed.type;
  response.version = parsed.version;
  response.payload.resize(parsed.payload_size);
  if (parsed.payload_size > 0) {
    if (util::Status s = util::ReadFull(fd_.get(), response.payload.data(),
                                        parsed.payload_size);
        !s.ok()) {
      fd_.Reset();
      return s;
    }
  }
  return response;
}

util::Status DaemonClient::Ping() {
  util::StatusOr<Frame> response = RoundTrip(FrameType::kPingRequest, "");
  if (!response.ok()) return response.status();
  if (response->type != FrameType::kPongResponse) {
    return util::DataLossError("expected PONG, got frame type " +
                               std::to_string(static_cast<int>(response->type)));
  }
  return util::OkStatus();
}

util::StatusOr<EncodeResponse> DaemonClient::Encode(
    const EncodeRequest& request, ErrorResponse* typed_error) {
  const std::string payload = EncodeEncodeRequestPayload(request);
  util::StatusOr<Frame> response =
      RoundTrip(FrameType::kEncodeRequest, payload);
  if (!response.ok()) return response.status();
  if (response->type == FrameType::kErrorResponse) {
    util::StatusOr<ErrorResponse> error =
        ParseErrorResponsePayload(response->payload);
    if (!error.ok()) return error.status();
    if (typed_error != nullptr) *typed_error = *error;
    return WireErrorToStatus(*error);
  }
  if (response->type != FrameType::kEncodeResponse) {
    return util::DataLossError("expected ENCODE response, got frame type " +
                               std::to_string(static_cast<int>(response->type)));
  }
  return ParseEncodeResponsePayload(response->payload);
}

util::StatusOr<EncodeResponse> DaemonClient::EncodeWithRetry(
    const EncodeRequest& request, const RetryPolicy& policy,
    ErrorResponse* typed_error, RetryStats* retry_stats) {
  util::StatusOr<EncodeResponse> result =
      util::FailedPreconditionError("no attempt made");
  int reconnects_left = policy.max_reconnects;
  for (int attempt = 0; attempt <= std::max(policy.max_retries, 0);
       ++attempt) {
    ErrorResponse error;
    // Sentinel: Encode only writes *typed_error when the daemon answered
    // with an ERROR frame, so a zero code afterwards means transport-level
    // failure (wire codes start at 1).
    error.code = static_cast<WireError>(0);
    if (retry_stats != nullptr) ++retry_stats->attempts;
    result = Encode(request, &error);
    if (result.ok()) {
      if (typed_error != nullptr) *typed_error = ErrorResponse{};
      return result;
    }
    const bool got_typed = error.code != static_cast<WireError>(0);
    if (typed_error != nullptr) {
      *typed_error = got_typed ? error : ErrorResponse{};
    }
    if (attempt == policy.max_retries) break;  // budget spent

    uint32_t hint_ms = 0;
    if (got_typed) {
      // A typed daemon error: retry only the shed family, and only when
      // the daemon's hint says a retry can ever succeed.
      if (!TypedErrorRetryable(error)) break;
      hint_ms = error.retry_after_ms;
    } else if (!connected()) {
      // Transport loss — EOF or broken pipe dropped the connection. A
      // bounded number of reconnects covers a daemon restart (warm
      // restarts are the normal deployment path); past the budget the
      // daemon is genuinely gone.
      if (reconnects_left <= 0) break;
      --reconnects_left;
      if (retry_stats != nullptr) ++retry_stats->reconnects;
    } else {
      break;  // non-retryable local failure (e.g. corrupt response frame)
    }

    // Capped exponential backoff, floored at the daemon's hint, plus
    // deterministic jitter in [0, backoff/4].
    uint64_t backoff = policy.initial_backoff_ms;
    backoff <<= std::min(attempt, 20);
    backoff = std::max<uint64_t>(backoff, hint_ms);
    backoff = std::min<uint64_t>(backoff, policy.max_backoff_ms);
    // The jitter stream is seeded per (jitter_seed, retry index), so every
    // retry of every client draws a distinct but replayable offset.
    backoff += util::Mix64(policy.jitter_seed ^
                           static_cast<uint64_t>(attempt)) %
               (backoff / 4 + 1);
    const auto backoff_ms = static_cast<uint32_t>(backoff);
    if (retry_stats != nullptr) retry_stats->backoffs_ms.push_back(backoff_ms);
    if (policy.sleep_override) {
      policy.sleep_override(backoff_ms);
    } else if (backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
    if (!connected()) {
      util::StatusOr<DaemonClient> fresh = Connect(socket_path_);
      if (!fresh.ok()) {
        result = fresh.status();
        continue;  // next attempt fails fast on "not connected" — or we
                   // reconnect again if budget remains
      }
      fd_ = std::move(fresh->fd_);
    }
  }
  return result;
}

util::StatusOr<std::string> DaemonClient::StatsJson() {
  util::StatusOr<Frame> response = RoundTrip(FrameType::kStatsRequest, "");
  if (!response.ok()) return response.status();
  if (response->type == FrameType::kErrorResponse) {
    util::StatusOr<ErrorResponse> error =
        ParseErrorResponsePayload(response->payload);
    if (!error.ok()) return error.status();
    return WireErrorToStatus(*error);
  }
  if (response->type != FrameType::kStatsResponse) {
    return util::DataLossError("expected STATS response, got frame type " +
                               std::to_string(static_cast<int>(response->type)));
  }
  return std::move(response->payload);
}

}  // namespace qpe::serve
