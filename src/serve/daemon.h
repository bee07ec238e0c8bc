#ifndef QPE_SERVE_DAEMON_H_
#define QPE_SERVE_DAEMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "drift/adaptation.h"
#include "drift/sentinel.h"
#include "serve/admission.h"
#include "serve/embedding_service.h"
#include "serve/tenant.h"
#include "serve/wire_protocol.h"
#include "util/socket.h"
#include "util/status.h"

namespace qpe::serve {

// qpe_served: the persistent multi-tenant embedding daemon. Promotes the
// in-process EmbeddingService to a long-running server on a Unix-domain
// socket, with a robustness layer between clients and the encoder:
//
//   client --UDS--> IO thread --admission control--> WFQ queues
//                                                       |
//                              worker shards  <---------+
//                              (EmbeddingService::EncodeAll)
//
// - One IO thread owns accept + all connection reads (poll + MSG_DONTWAIT)
//   and parses length-prefixed frames (serve/wire_protocol.h). A complete
//   ENCODE frame is admitted or shed *before* any plan parsing happens, so
//   overload decisions cost microseconds, not encodes.
// - AdmissionController (serve/admission.h) enforces per-tenant
//   token-bucket quotas, bounded per-tenant queues, and weighted-fair
//   dequeue. Shed requests get a typed ERROR frame (RESOURCE_EXHAUSTED /
//   DEADLINE_EXCEEDED / UNAVAILABLE) with a retry-after hint — bounded
//   latency under overload instead of queue collapse.
// - N worker threads pop admitted work, re-check the deadline (expired
//   queued work is cancelled, never encoded), parse the plans, run the
//   shared EmbeddingService (fingerprint cache + micro-batched encode),
//   and write the response directly to the client socket (SO_SNDTIMEO
//   bounds how long a slow consumer can hold a worker).
// - SIGTERM/SIGINT are routed through an async-signal-safe self-pipe
//   (util::SelfPipe) into the IO thread's poll loop: the daemon stops
//   accepting, sheds new requests with UNAVAILABLE, flushes everything
//   already admitted (bounded by drain_deadline_seconds), persists the
//   warm cache + model fingerprint via the crash-safe warm-state layer
//   (serve/warm_state.h), and exits. A restarted daemon restores the
//   snapshot and serves warm immediately.
//
// Fault sites for deterministic chaos tests: "daemon.accept",
// "daemon.conn.read", plus the socket-layer sites ("socket.read",
// "socket.write", "socket.write.short") and the warm-state sites. Each
// injected fault must degrade one connection or one snapshot, never the
// daemon.

struct ServingDaemonConfig {
  std::string socket_path;
  int workers = 2;
  size_t max_payload_bytes = 16u << 20;
  AdmissionController::Config admission;
  EmbeddingServiceConfig service;
  // Warm-restart snapshot file; "" disables persistence entirely.
  std::string warm_state_path;
  // Also snapshot after every N completed requests (0 = only at drain), so
  // a SIGKILLed daemon still restarts warm from the last periodic snapshot.
  uint64_t snapshot_every_requests = 0;
  // Upper bound on the drain phase: admitted-but-unserved work past this
  // deadline is failed with UNAVAILABLE and connections are closed.
  double drain_deadline_seconds = 5.0;
  // Install the SIGTERM/SIGINT self-pipe handler (the qpe_served binary
  // does; tests usually call TriggerDrain() directly).
  bool install_signal_handlers = false;
  // Fingerprint of the serving model (serve/warm_state.h). Stamped into
  // snapshots and required of restored ones; 0 skips the check.
  uint64_t model_fingerprint = 0;

  // --- Drift sentinel & self-healing (optional) ---------------------------
  // Enables the streaming drift sentinel. Requires drift_corpus (serialized
  // training plans) so Start() can build the baseline — embedding-space
  // centroids, token frequencies, fingerprint bloom — against the serving
  // encoder, and requires that encoder to be a TransformerPlanEncoder.
  bool enable_drift = false;
  std::vector<std::string> drift_corpus;
  drift::DriftSentinelConfig drift_sentinel;
  // Self-healing: the crash-safe adaptation round's state directory lives in
  // adaptation.dir; "" keeps the sentinel alarm-only (detect + flag stale
  // responses, never fine-tune). When set, a DRIFTED verdict starts an
  // incremental fine-tune on the drifted slice in a background thread, and
  // Start() resumes (or installs) a round the previous process left behind.
  drift::AdaptationConfig adaptation;
};

// Daemon-level counters (connection/protocol health; admission and cache
// health live in TenantCounters and ServiceStats). Snapshot via GetStats.
struct DaemonStats {
  bool draining = false;
  uint64_t connections_accepted = 0;
  uint64_t connections_open = 0;
  uint64_t protocol_errors = 0;   // bad frames (magic/version/size/parse)
  uint64_t io_errors = 0;         // read/write/accept failures, timeouts
  uint64_t warm_restored_entries = 0;
  uint64_t snapshots_written = 0;
  ServiceStats service;
  std::vector<std::pair<std::string, TenantCounters>> tenants;
  // Drift sentinel state (drift fields valid iff drift_enabled).
  bool drift_enabled = false;
  drift::DriftStatusSnapshot drift;
  uint64_t adaptations_completed = 0;
  uint64_t adaptations_resumed = 0;
  // Fingerprint of the model serving right now (tracks adaptation swaps,
  // unlike the construction-time config value).
  uint64_t current_fingerprint = 0;
  // Mean sentinel Observe cost per served plan — the detector's overhead.
  double drift_observe_us_per_plan = 0;
};

class ServingDaemon {
 public:
  // `encoder` must outlive the daemon.
  ServingDaemon(const encoder::PlanSequenceEncoder* encoder,
                const ServingDaemonConfig& config);
  ~ServingDaemon();

  ServingDaemon(const ServingDaemon&) = delete;
  ServingDaemon& operator=(const ServingDaemon&) = delete;

  // Binds the socket, restores warm state if present (a fingerprint
  // mismatch or corrupt snapshot logs and starts cold — never fatal), and
  // spawns the IO thread + worker shards. Returns only setup errors.
  util::Status Start();

  // Initiates graceful drain exactly as a SIGTERM would (the same
  // self-pipe path). Non-blocking; pair with Join().
  void TriggerDrain();

  // Blocks until the daemon has fully drained and every thread exited.
  void Join();

  // TriggerDrain + Join.
  void Stop();

  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  DaemonStats GetStats() const;
  // The STATS verb's payload: GetStats rendered as a JSON object.
  std::string StatsJson() const;

  EmbeddingService* service() { return service_.get(); }

 private:
  struct Connection;
  using ConnPtr = std::shared_ptr<Connection>;

  void IoLoop();
  void WorkerLoop();
  void HandleFrame(const ConnPtr& conn, Frame frame);
  void HandleEncodeRequest(const ConnPtr& conn, std::string payload,
                           uint8_t wire_version);
  void ProcessWork(QueuedRequest work);
  void SendFrame(const ConnPtr& conn, FrameType type,
                 std::string_view payload);
  void SendError(const ConnPtr& conn, WireError code, uint32_t retry_after_ms,
                 std::string message);
  void MaybeSnapshot(bool force);
  double Now() const;  // monotonic seconds since Start

  // Drift plumbing (all no-ops unless config_.enable_drift).
  util::Status InitDrift();             // Start(): baseline + restart re-entry
  void MaybeStartAdaptation();          // IO thread: DRIFTED -> spawn round
  void StartAdaptationThread(bool resumed);
  void AdaptationRound(bool resumed);   // adaptation thread body
  void InstallAdaptedEncoder(
      std::unique_ptr<encoder::TransformerPlanEncoder> fresh,
      std::vector<std::unique_ptr<plan::PlanNode>> slice_plans);

  const encoder::PlanSequenceEncoder* encoder_;
  ServingDaemonConfig config_;
  std::unique_ptr<EmbeddingService> service_;
  std::unique_ptr<AdmissionController> admission_;
  util::SelfPipe drain_pipe_;
  util::UniqueFd listener_;
  std::thread io_thread_;
  std::vector<std::thread> workers_;
  std::atomic<int> workers_running_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::chrono::steady_clock::time_point start_time_;

  std::mutex join_mu_;  // serializes Join callers

  // Guards the serving-model triple — encoder_ (and the service's copy of
  // it), the embedding cache, and config_.model_fingerprint — as one unit.
  // EncodeAll + sentinel observation and warm snapshots take it shared; an
  // adaptation swap takes it exclusive, so a snapshot can never pair the
  // old fingerprint with the refreshed cache (or vice versa).
  mutable std::shared_mutex model_mu_;
  std::unique_ptr<encoder::TransformerPlanEncoder> adapted_encoder_;
  std::unique_ptr<drift::DriftSentinel> sentinel_;
  std::vector<std::unique_ptr<plan::PlanNode>> corpus_plans_;
  std::thread adapt_thread_;
  std::atomic<bool> adapt_running_{false};
  std::atomic<bool> adapt_abort_{false};
  std::atomic<uint64_t> adaptations_completed_{0};
  std::atomic<uint64_t> adaptations_resumed_{0};
  std::atomic<uint64_t> drift_observe_ns_{0};
  std::atomic<uint64_t> drift_observed_{0};

  // Counters (relaxed: monitoring only).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_open_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> io_errors_{0};
  std::atomic<uint64_t> warm_restored_entries_{0};
  std::atomic<uint64_t> snapshots_written_{0};
  std::atomic<uint64_t> completed_since_snapshot_{0};
};

}  // namespace qpe::serve

#endif  // QPE_SERVE_DAEMON_H_
