#ifndef QPEBENCH_LOADGEN_H_
#define QPEBENCH_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/wire_protocol.h"
#include "util/socket.h"
#include "util/status.h"

namespace qpebench {

// One generated request: the complete ENCODE frame plus what the checker
// needs to validate the answer.
struct GenRequest {
  std::string frame;
  std::vector<uint32_t> plan_ids;  // pool index of each plan, request order
  int tenant = 0;                  // 0 or 1
};

// Request i of the workload's deterministic stream.
using RequestSource = std::function<void(uint64_t index, GenRequest* out)>;
// Validates one decoded response; returns false on a mismatch. Always
// called from a single thread at a time (the phase's receiving thread).
using ResponseCheck =
    std::function<bool(const GenRequest&, const qpe::serve::EncodeResponse&)>;

inline constexpr int kRateWindows = 5;

// What one load phase did. Every request attempted ends in exactly one of
// succeeded / shed / transport_failed / mismatched.
struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t shed = 0;              // typed ERROR frames from the daemon
  uint64_t transport_failed = 0;  // connection lost or no answer in time
  uint64_t mismatched = 0;        // answer failed the output check
  std::map<std::string, uint64_t> shed_by_code;
  uint64_t plans_succeeded = 0;
  uint64_t tenant_succeeded[2] = {0, 0};
  std::vector<double> latencies_ms;  // succeeded requests only
  std::vector<double> lag_ms;        // open loop: send time - due time
  // Closed loop: plans completed in each of kRateWindows equal slices of
  // the window.
  std::vector<uint64_t> window_plans;
  double window_seconds = 0;
  double cpu_seconds = 0;  // process CPU from phase start to last answer

  uint64_t failed() const { return shed + transport_failed + mismatched; }
  // Median over the window slices of plans per second: one slowed slice
  // (a stall, a noisy neighbour) does not move it.
  double MedianWindowRate() const;
  double FailureShare() const {
    return attempted == 0 ? 0 : static_cast<double>(failed()) / attempted;
  }
  std::string Summary(const std::string& phase) const;
};

// Load generator for qpe_served over its Unix socket. Holds a fixed set of
// connections, each with at most one request outstanding (the daemon may
// answer pipelined requests of one connection out of order, so a response
// is matched to its connection's single request).
//
// - RunClosedLoop: every connection sends its next request as soon as the
//   previous answer arrives; latency is timed from the send. Runs on the
//   calling thread alone.
// - RunOpenLoop: requests are due on a Poisson schedule at a fixed rate and
//   are sent at their due time whatever the daemon's progress; latency is
//   timed from the due time, so a stall also delays every request queued
//   behind it. The calling thread sends, one receiver thread reads.
//
// The request stream continues across phases: request indices are never
// reused within one generator.
class LoadGenerator {
 public:
  LoadGenerator(std::string socket_path, int connections,
                RequestSource source, ResponseCheck check);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  qpe::util::Status Connect();

  PhaseResult RunClosedLoop(double seconds, int active_connections);
  PhaseResult RunOpenLoop(double rate_per_second, double seconds,
                          uint64_t schedule_seed);

 private:
  struct Conn {
    qpe::util::UniqueFd fd;
    std::string in_buf;  // receiving thread only
    bool busy = false;   // guarded by mu_ in the open loop
    bool dead = false;
    GenRequest request;
    double t0 = 0;       // send time (closed) or due time (open)
  };

  // Reads what is available on conns_[c] and completes its request if a
  // whole frame arrived. Returns true if the request completed.
  bool Pump(size_t c, PhaseResult* result, bool* completed);
  void Complete(Conn& conn, const qpe::serve::Frame& frame, double now,
                PhaseResult* result);
  void Fail(Conn& conn, PhaseResult* result);
  void Send(Conn& conn, double t0, PhaseResult* result);

  std::string socket_path_;
  int connections_;
  RequestSource source_;
  ResponseCheck check_;
  std::vector<Conn> conns_;
  uint64_t next_index_ = 0;
  double window_end_ = 0;
  std::mutex mu_;  // open loop: busy flags, request/t0 hand-off
};

// Monitoring client: calls DaemonClient::StatsJson at a fixed period on
// its own thread (asleep in between) and keeps the STATS round-trip times
// and the largest total queue depth it read.
class StatsPoller {
 public:
  StatsPoller(std::string socket_path, double period_seconds);
  ~StatsPoller();
  StatsPoller(const StatsPoller&) = delete;
  StatsPoller& operator=(const StatsPoller&) = delete;

  void Start();
  void Stop();

  const std::vector<double>& round_trips_ms() const { return rtt_ms_; }
  int max_queue_depth() const { return max_queue_depth_; }
  uint64_t errors() const { return errors_; }

 private:
  void Loop();

  std::string socket_path_;
  double period_;
  std::atomic<bool> stop_{false};
  std::vector<double> rtt_ms_;  // poller thread until Stop() joins it
  int max_queue_depth_ = 0;
  uint64_t errors_ = 0;
  std::thread thread_;
};

// Sum of every "queue_depth" field in a STATS JSON document.
int SumQueueDepth(const std::string& stats_json);

}  // namespace qpebench

#endif  // QPEBENCH_LOADGEN_H_
