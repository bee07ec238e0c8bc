#ifndef QPE_SERVE_CLIENT_H_
#define QPE_SERVE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/wire_protocol.h"
#include "util/socket.h"
#include "util/status.h"

namespace qpe::serve {

// Client-side retry discipline for EncodeWithRetry. Two failure families
// are retryable:
//   - typed shed errors (RESOURCE_EXHAUSTED / UNAVAILABLE) whose
//     retry_after_ms is not kRetryNever: the daemon said "come back";
//   - transport loss (EOF, broken pipe): the daemon restarted or dropped
//     the connection; the client reconnects, bounded by max_reconnects.
// INVALID_ARGUMENT, DEADLINE_EXCEEDED, and kRetryNever sheds never retry —
// repeating them can only repeat the answer.
//
// The backoff for retry i is
//     min(max(retry_after_hint, initial_backoff_ms << i), max_backoff_ms)
// plus deterministic jitter in [0, backoff/4] drawn from jitter_seed, so a
// fleet of clients with distinct seeds decorrelates without any global
// randomness (and tests replay exact schedules).
struct RetryPolicy {
  int max_retries = 3;                // attempts after the first
  uint32_t initial_backoff_ms = 10;
  uint32_t max_backoff_ms = 2000;
  int max_reconnects = 1;             // reconnect-on-EOF budget per call
  uint64_t jitter_seed = 1;
  // Test hook: when set, called with each backoff instead of sleeping.
  std::function<void(uint32_t)> sleep_override;
};

// What a retried call actually did (telemetry + test assertions).
struct RetryStats {
  int attempts = 0;                   // Encode attempts, including the first
  int reconnects = 0;
  std::vector<uint32_t> backoffs_ms;  // each sleep, in order
};

// Blocking client for the qpe_served wire protocol: one connection, one
// outstanding request at a time (the daemon itself handles pipelining;
// this client keeps the common case simple). Used by the qpe_client CLI,
// the bench_serving load generator, and the daemon tests.
//
// A transport failure (daemon gone, truncated frame) surfaces as a non-OK
// Status from the call. A *typed daemon error* — shed under overload,
// deadline exceeded, draining — also returns a non-OK Status, but fills
// *typed_error with the wire code, retry-after hint, and message so
// callers can implement backoff instead of string-matching.
class DaemonClient {
 public:
  DaemonClient() = default;

  static util::StatusOr<DaemonClient> Connect(const std::string& socket_path);

  bool connected() const { return fd_.valid(); }

  util::Status Ping();

  // Encodes request.plans; embeddings come back in request order.
  util::StatusOr<EncodeResponse> Encode(const EncodeRequest& request,
                                        ErrorResponse* typed_error = nullptr);

  // Encode with the retry discipline documented on RetryPolicy: honors the
  // daemon's typed retry_after_ms hints under capped exponential backoff
  // with deterministic jitter, and reconnects (bounded) when the daemon
  // hangs up mid-conversation. Returns the last attempt's result.
  util::StatusOr<EncodeResponse> EncodeWithRetry(
      const EncodeRequest& request, const RetryPolicy& policy,
      ErrorResponse* typed_error = nullptr, RetryStats* retry_stats = nullptr);

  util::StatusOr<std::string> StatsJson();

  // Closes the connection immediately (tests use this to hang up with a
  // request in flight).
  void Close() { fd_.Reset(); }

 private:
  util::StatusOr<Frame> RoundTrip(FrameType type, std::string_view payload);

  util::UniqueFd fd_;
  std::string socket_path_;  // for EncodeWithRetry reconnects
  size_t max_payload_bytes_ = 64u << 20;
};

}  // namespace qpe::serve

#endif  // QPE_SERVE_CLIENT_H_
