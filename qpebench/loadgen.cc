#include "loadgen.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>

#include "serve/client.h"
#include "stats.h"

namespace qpebench {

namespace {

using qpe::serve::EncodeResponse;
using qpe::serve::Frame;
using qpe::serve::FrameParse;
using qpe::serve::FrameType;

constexpr size_t kMaxResponseBytes = 64u << 20;
// How long a phase waits for outstanding answers after its window closes;
// a request still unanswered then counts as transport-failed.
constexpr double kDrainSeconds = 5.0;
constexpr int kPollMs = 5;

void SleepUntil(double wall_seconds) {
  const double delay = wall_seconds - WallSeconds();
  if (delay > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }
}

// Exponential inter-arrival gap for request i of a Poisson schedule,
// derived statelessly from (seed, i).
double PoissonGap(uint64_t seed, uint64_t i, double rate) {
  const double u =
      static_cast<double>(Mix64(seed * 0x100000001B3ULL + i) >> 11) *
      (1.0 / 9007199254740992.0);  // [0, 1)
  return -std::log1p(-u) / rate;
}

void Merge(PhaseResult* into, const PhaseResult& from) {
  into->attempted += from.attempted;
  into->succeeded += from.succeeded;
  into->shed += from.shed;
  into->transport_failed += from.transport_failed;
  into->mismatched += from.mismatched;
  for (const auto& [code, n] : from.shed_by_code) into->shed_by_code[code] += n;
  into->plans_succeeded += from.plans_succeeded;
  into->tenant_succeeded[0] += from.tenant_succeeded[0];
  into->tenant_succeeded[1] += from.tenant_succeeded[1];
  into->latencies_ms.insert(into->latencies_ms.end(), from.latencies_ms.begin(),
                            from.latencies_ms.end());
  into->lag_ms.insert(into->lag_ms.end(), from.lag_ms.begin(),
                      from.lag_ms.end());
}

}  // namespace

double PhaseResult::MedianWindowRate() const {
  if (window_plans.empty() || window_seconds <= 0) return 0;
  std::vector<double> rates;
  for (const uint64_t plans : window_plans) {
    rates.push_back(static_cast<double>(plans) * kRateWindows / window_seconds);
  }
  return Median(rates);
}

std::string PhaseResult::Summary(const std::string& phase) const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "phase %s: attempted %llu, succeeded %llu, shed %llu, "
                "transport-failed %llu, mismatched %llu, failure share %.6f, "
                "window %.3f s",
                phase.c_str(), static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(succeeded),
                static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(transport_failed),
                static_cast<unsigned long long>(mismatched), FailureShare(),
                window_seconds);
  std::string out = buf;
  for (const auto& [code, n] : shed_by_code) {
    out += ", shed " + code + " " + std::to_string(n);
  }
  return out;
}

LoadGenerator::LoadGenerator(std::string socket_path, int connections,
                             RequestSource source, ResponseCheck check)
    : socket_path_(std::move(socket_path)),
      connections_(connections),
      source_(std::move(source)),
      check_(std::move(check)) {}

LoadGenerator::~LoadGenerator() = default;

qpe::util::Status LoadGenerator::Connect() {
  conns_.clear();
  conns_.resize(static_cast<size_t>(connections_));
  for (Conn& conn : conns_) {
    qpe::util::StatusOr<qpe::util::UniqueFd> fd =
        qpe::util::ConnectUnix(socket_path_);
    if (!fd.ok()) return fd.status();
    conn.fd = std::move(*fd);
  }
  return qpe::util::OkStatus();
}

void LoadGenerator::Send(Conn& conn, double t0, PhaseResult* result) {
  ++result->attempted;
  conn.t0 = t0;
  conn.busy = true;
  if (!qpe::util::WriteFull(conn.fd.get(), conn.request.frame.data(),
                            conn.request.frame.size())
           .ok()) {
    ++result->transport_failed;
    conn.busy = false;
    conn.dead = true;
  }
}

void LoadGenerator::Fail(Conn& conn, PhaseResult* result) {
  if (conn.busy) ++result->transport_failed;
  conn.busy = false;
  conn.dead = true;
}

void LoadGenerator::Complete(Conn& conn, const Frame& frame, double now,
                             PhaseResult* result) {
  // Takes the checker's fields but never the frame, which the sending
  // thread may still be reading on its way out of the write call.
  GenRequest request;
  double t0 = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    request.tenant = conn.request.tenant;
    request.plan_ids.swap(conn.request.plan_ids);
    t0 = conn.t0;
  }
  if (frame.type == FrameType::kEncodeResponse) {
    qpe::util::StatusOr<EncodeResponse> response =
        qpe::serve::ParseEncodeResponsePayload(frame.payload);
    if (!response.ok() || !check_(request, *response)) {
      ++result->mismatched;
    } else {
      ++result->succeeded;
      result->latencies_ms.push_back((now - t0) * 1e3);
      const uint64_t plans = response->embeddings.size();
      result->plans_succeeded += plans;
      if (now <= window_end_ && !result->window_plans.empty()) {
        const double into = now - (window_end_ - result->window_seconds);
        const auto slice = static_cast<size_t>(std::clamp(
            into / result->window_seconds * kRateWindows, 0.0,
            static_cast<double>(kRateWindows - 1)));
        result->window_plans[slice] += plans;
      }
      ++result->tenant_succeeded[request.tenant & 1];
    }
  } else if (frame.type == FrameType::kErrorResponse) {
    qpe::util::StatusOr<qpe::serve::ErrorResponse> error =
        qpe::serve::ParseErrorResponsePayload(frame.payload);
    if (error.ok()) {
      ++result->shed;
      ++result->shed_by_code[qpe::serve::WireErrorName(error->code)];
    } else {
      ++result->mismatched;
    }
  } else {
    ++result->mismatched;
  }
}

bool LoadGenerator::Pump(size_t c, PhaseResult* result, bool* completed) {
  Conn& conn = conns_[c];
  *completed = false;
  char buf[65536];
  while (true) {
    const ssize_t n = ::recv(conn.fd.get(), buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      conn.in_buf.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      std::lock_guard<std::mutex> lock(mu_);
      Fail(conn, result);
      return false;
    }
    break;
  }
  Frame frame;
  size_t consumed = 0;
  qpe::util::Status error;
  const FrameParse parse = qpe::serve::NextFrame(
      conn.in_buf, kMaxResponseBytes, &frame, &consumed, &error);
  if (parse == FrameParse::kNeedMore) return true;
  if (parse == FrameParse::kError) {
    std::lock_guard<std::mutex> lock(mu_);
    Fail(conn, result);
    return false;
  }
  conn.in_buf.erase(0, consumed);
  Complete(conn, frame, WallSeconds(), result);
  *completed = true;
  return true;
}

PhaseResult LoadGenerator::RunClosedLoop(double seconds,
                                         int active_connections) {
  PhaseResult result;
  result.window_seconds = seconds;
  result.window_plans.assign(kRateWindows, 0);
  const size_t active = std::min(conns_.size(),
                                 static_cast<size_t>(active_connections));
  const double cpu0 = ProcessCpuSeconds();
  const double start = WallSeconds();
  window_end_ = start + seconds;
  for (size_t c = 0; c < active; ++c) {
    Conn& conn = conns_[c];
    if (conn.dead) continue;
    source_(next_index_++, &conn.request);
    Send(conn, WallSeconds(), &result);
  }
  std::vector<pollfd> fds;
  std::vector<size_t> which;
  while (true) {
    fds.clear();
    which.clear();
    for (size_t c = 0; c < active; ++c) {
      if (conns_[c].busy && !conns_[c].dead) {
        fds.push_back({conns_[c].fd.get(), POLLIN, 0});
        which.push_back(c);
      }
    }
    const double now = WallSeconds();
    if (fds.empty()) break;
    if (now > window_end_ + kDrainSeconds) {
      for (const size_t c : which) Fail(conns_[c], &result);
      break;
    }
    if (::poll(fds.data(), fds.size(), kPollMs) < 0 && errno != EINTR) break;
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      bool completed = false;
      Conn& conn = conns_[which[i]];
      if (!Pump(which[i], &result, &completed) || !completed) continue;
      conn.busy = false;
      if (WallSeconds() < window_end_) {
        source_(next_index_++, &conn.request);
        Send(conn, WallSeconds(), &result);
      }
    }
  }
  result.window_seconds = seconds;
  result.cpu_seconds = ProcessCpuSeconds() - cpu0;
  return result;
}

PhaseResult LoadGenerator::RunOpenLoop(double rate_per_second, double seconds,
                                       uint64_t schedule_seed) {
  PhaseResult sent;      // sender thread: attempts, lag, write failures
  PhaseResult received;  // receiver thread: everything else
  std::condition_variable idle_cv;
  std::vector<size_t> idle;
  for (size_t c = 0; c < conns_.size(); ++c) {
    if (!conns_[c].dead) idle.push_back(c);
  }
  std::reverse(idle.begin(), idle.end());
  uint64_t outstanding = 0;  // guarded by mu_
  std::atomic<bool> sender_done{false};

  const double cpu0 = ProcessCpuSeconds();
  const double start = WallSeconds() + 0.005;
  window_end_ = start + seconds;

  // The receiver polls every live connection, busy or not, so an answer
  // wakes it at once; the sender publishes a connection's request and due
  // time under mu_ before writing the frame.
  std::thread receiver([&] {
    std::vector<pollfd> fds;
    std::vector<size_t> which;
    while (true) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (sender_done.load() && outstanding == 0) break;
        fds.clear();
        which.clear();
        for (size_t c = 0; c < conns_.size(); ++c) {
          if (!conns_[c].dead) {
            fds.push_back({conns_[c].fd.get(), POLLIN, 0});
            which.push_back(c);
          }
        }
        if (fds.empty() ||
            (outstanding > 0 && WallSeconds() > window_end_ + kDrainSeconds)) {
          for (const size_t c : which) Fail(conns_[c], &received);
          outstanding = 0;
          idle.clear();
          idle_cv.notify_all();
          break;
        }
      }
      if (::poll(fds.data(), fds.size(), kPollMs) < 0 && errno != EINTR) {
        continue;
      }
      for (size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        const size_t c = which[i];
        bool was_busy = false;
        {
          std::lock_guard<std::mutex> lock(mu_);
          was_busy = conns_[c].busy;
        }
        bool completed = false;
        const bool alive = Pump(c, &received, &completed);
        if (alive && !completed) continue;
        std::lock_guard<std::mutex> lock(mu_);
        if (was_busy) --outstanding;
        if (alive) {
          conns_[c].busy = false;
          idle.push_back(c);
        } else {
          // A dead connection is never handed to the sender again.
          idle.erase(std::remove(idle.begin(), idle.end(), c), idle.end());
        }
        idle_cv.notify_one();
      }
    }
  });

  double due = start;
  for (uint64_t i = 0;; ++i) {
    due += PoissonGap(schedule_seed, i, rate_per_second);
    if (due >= window_end_) break;
    GenRequest request;
    source_(next_index_++, &request);  // built before its due time
    SleepUntil(due);
    size_t c = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      idle_cv.wait(lock, [&] {
        return !idle.empty() || WallSeconds() > window_end_ + kDrainSeconds;
      });
      if (idle.empty()) break;  // every connection is stuck or dead
      c = idle.back();
      idle.pop_back();
      conns_[c].request = std::move(request);
      conns_[c].t0 = due;
      conns_[c].busy = true;
      ++outstanding;
    }
    sent.lag_ms.push_back((WallSeconds() - due) * 1e3);
    Conn& conn = conns_[c];
    ++sent.attempted;
    // The receiver never touches conn.request.frame (see Complete), and the
    // connection is not reused before its answer arrives.
    const std::string* frame = &conn.request.frame;
    if (!qpe::util::WriteFull(conn.fd.get(), frame->data(), frame->size())
             .ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++sent.transport_failed;
      conn.busy = false;
      conn.dead = true;
      --outstanding;
    }
  }
  sender_done.store(true);
  receiver.join();

  PhaseResult result = std::move(sent);
  Merge(&result, received);
  result.window_seconds = seconds;
  result.cpu_seconds = ProcessCpuSeconds() - cpu0;
  return result;
}

StatsPoller::StatsPoller(std::string socket_path, double period_seconds)
    : socket_path_(std::move(socket_path)), period_(period_seconds) {}

StatsPoller::~StatsPoller() { Stop(); }

void StatsPoller::Start() {
  stop_.store(false);
  thread_ = std::thread([this] { Loop(); });
}

void StatsPoller::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void StatsPoller::Loop() {
  qpe::util::StatusOr<qpe::serve::DaemonClient> client =
      qpe::serve::DaemonClient::Connect(socket_path_);
  if (!client.ok()) {
    ++errors_;
    return;
  }
  double next = WallSeconds();
  while (!stop_.load()) {
    const double t0 = WallSeconds();
    qpe::util::StatusOr<std::string> stats = client->StatsJson();
    if (!stats.ok()) {
      ++errors_;
      return;
    }
    rtt_ms_.push_back((WallSeconds() - t0) * 1e3);
    max_queue_depth_ = std::max(max_queue_depth_, SumQueueDepth(*stats));
    next += period_;
    while (!stop_.load() && WallSeconds() < next) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

int SumQueueDepth(const std::string& stats_json) {
  static const std::string kKey = "\"queue_depth\":";
  int total = 0;
  for (size_t pos = stats_json.find(kKey); pos != std::string::npos;
       pos = stats_json.find(kKey, pos + kKey.size())) {
    total += std::atoi(stats_json.c_str() + pos + kKey.size());
  }
  return total;
}

}  // namespace qpebench
