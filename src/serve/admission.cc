#include "serve/admission.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace qpe::serve {

namespace {

constexpr uint32_t kRetryNeverMs = 0xFFFFFFFFu;

uint32_t RetrySecondsToMs(double seconds) {
  if (seconds < 0) return kRetryNeverMs;
  const double ms = std::ceil(seconds * 1e3);
  if (ms >= static_cast<double>(kRetryNeverMs)) return kRetryNeverMs - 1;
  return std::max<uint32_t>(1, static_cast<uint32_t>(ms));
}

}  // namespace

AdmissionController::AdmissionController(const Config& config)
    : config_(config) {}

AdmissionController::Tenant& AdmissionController::TenantFor(
    const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    const auto cfg_it = config_.tenants.find(name);
    const TenantConfig& cfg = cfg_it != config_.tenants.end()
                                  ? cfg_it->second
                                  : config_.default_tenant;
    it = tenants_.try_emplace(name, name, cfg).first;
  }
  return it->second;
}

AdmissionController::Result AdmissionController::Offer(QueuedRequest request,
                                                       double now) {
  std::lock_guard<std::mutex> lock(mu_);
  Tenant& tenant = TenantFor(request.tenant);
  std::deque<QueuedRequest>& queue = tenant.queue;
  if (draining_ || aborted_) {
    ++tenant.counters.shed_draining;
    return {Decision::kShedDraining, 0};
  }
  if (request.deadline <= now) {
    ++tenant.counters.shed_deadline;
    return {Decision::kShedDeadline, 0};
  }
  double retry_after_seconds = 0;
  if (!tenant.bucket.TrySpend(request.cost, now, &retry_after_seconds)) {
    ++tenant.counters.shed_quota;
    return {Decision::kShedQuota, RetrySecondsToMs(retry_after_seconds)};
  }
  if (static_cast<int>(queue.size()) >= tenant.config.max_queued_requests) {
    ++tenant.counters.shed_queue_full;
    return {Decision::kShedQueueFull, config_.queue_full_retry_ms};
  }
  request.enqueue_time = now;
  request.virtual_start = std::max(virtual_time_, tenant.last_virtual_finish);
  const double weight = std::max(tenant.config.weight, 1e-9);
  request.virtual_finish =
      request.virtual_start + static_cast<double>(request.cost) / weight;
  tenant.last_virtual_finish = request.virtual_finish;
  ++tenant.counters.admitted;
  tenant.counters.plans += request.cost;
  queue.push_back(std::move(request));
  tenant.counters.queue_depth = static_cast<int>(queue.size());
  ++total_queued_;
  work_cv_.notify_one();
  return {Decision::kAdmitted, 0};
}

QueuedRequest AdmissionController::PopLocked() {
  // Serve the tenant whose head request finishes earliest in virtual time.
  Tenant* best = nullptr;
  for (auto& [name, tenant] : tenants_) {
    if (tenant.queue.empty()) continue;
    if (best == nullptr || tenant.queue.front().virtual_finish <
                               best->queue.front().virtual_finish) {
      best = &tenant;
    }
  }
  QueuedRequest request = std::move(best->queue.front());
  best->queue.pop_front();
  best->counters.queue_depth = static_cast<int>(best->queue.size());
  --total_queued_;
  virtual_time_ = std::max(virtual_time_, request.virtual_start);
  return request;
}

std::optional<QueuedRequest> AdmissionController::PopBlocking() {
  std::unique_lock<std::mutex> lock(mu_);
  work_cv_.wait(lock, [this] {
    return total_queued_ > 0 || draining_ || aborted_;
  });
  if (total_queued_ == 0) return std::nullopt;  // draining/aborted and empty
  return PopLocked();
}

std::optional<QueuedRequest> AdmissionController::TryPop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (total_queued_ == 0) return std::nullopt;
  return PopLocked();
}

void AdmissionController::SetDraining() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  work_cv_.notify_all();
}

bool AdmissionController::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

std::vector<QueuedRequest> AdmissionController::Abort() {
  std::lock_guard<std::mutex> lock(mu_);
  aborted_ = true;
  std::vector<QueuedRequest> remaining;
  for (auto& [name, tenant] : tenants_) {
    tenant.counters.queue_depth = 0;
    while (!tenant.queue.empty()) {
      remaining.push_back(std::move(tenant.queue.front()));
      tenant.queue.pop_front();
    }
  }
  total_queued_ = 0;
  work_cv_.notify_all();
  return remaining;
}

void AdmissionController::RecordCompleted(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  ++TenantFor(tenant).counters.completed;
}

void AdmissionController::RecordDeadlineMissed(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  ++TenantFor(tenant).counters.deadline_missed;
}

std::vector<std::pair<std::string, TenantCounters>>
AdmissionController::CountersSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, TenantCounters>> out;
  out.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) {
    out.emplace_back(name, tenant.counters);
  }
  return out;
}

size_t AdmissionController::TotalQueued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_queued_;
}

}  // namespace qpe::serve
