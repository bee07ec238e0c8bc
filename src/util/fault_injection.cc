#include "util/fault_injection.h"

#include <cstdlib>

namespace qpe::util {

FaultInjector& FaultInjector::Instance() {
  static FaultInjector* const kInstance = new FaultInjector();
  return *kInstance;
}

FaultInjector::FaultInjector() {
  // QPE_FAULT="pattern:N" arms one fault for the whole process, so scripts
  // can exercise IO degradation without recompiling.
  const char* env = std::getenv("QPE_FAULT");
  if (env == nullptr) return;
  const std::string spec(env);
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0) return;
  const int nth = std::atoi(spec.c_str() + colon + 1);
  if (nth > 0) {
    pattern_ = spec.substr(0, colon);
    nth_ = nth;
  }
}

void FaultInjector::Arm(std::string pattern, int nth) {
  std::lock_guard<std::mutex> lock(mu_);
  if (nth <= 0) {
    pattern_.clear();
    nth_ = 0;
  } else {
    pattern_ = std::move(pattern);
    nth_ = nth;
  }
  count_ = 0;
}

void FaultInjector::Disarm() { Arm("", 0); }

Status FaultInjector::Inject(std::string_view site) {
  std::lock_guard<std::mutex> lock(mu_);
  if (nth_ <= 0) return OkStatus();
  if (site.find(pattern_) == std::string_view::npos) return OkStatus();
  ++count_;
  if (count_ != nth_) return OkStatus();
  return IoError("injected fault at site '" + std::string(site) + "' (call " +
                 std::to_string(count_) + ")");
}

ScopedFaultInjection::ScopedFaultInjection(std::string pattern, int nth) {
  FaultInjector::Instance().Arm(std::move(pattern), nth);
}

ScopedFaultInjection::~ScopedFaultInjection() {
  FaultInjector::Instance().Disarm();
}

}  // namespace qpe::util
