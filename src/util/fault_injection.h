#ifndef QPE_UTIL_FAULT_INJECTION_H_
#define QPE_UTIL_FAULT_INJECTION_H_

#include <mutex>
#include <string>
#include <string_view>

#include "util/status.h"

namespace qpe::util {

// Deterministic fault injection for IO paths. Every stream / filesystem
// operation in the serialization stack declares a *site* (a stable dotted
// name such as "checkpoint.write" or "dataset.load.open") and calls
// InjectFault(site) before doing the real work. When a fault is armed for a
// pattern and call index N, the Nth call whose site contains the pattern
// returns an IO error — so tests can walk a failure through every byte of
// an IO path and assert that degradation is clean (no partial mutation, no
// leaked temp files, descriptive Status).
//
// Arming:
//   - in-process: ScopedFaultInjection guard(pattern, nth)   (tests)
//   - externally: QPE_FAULT="pattern:N" in the environment   (scripts),
//     read once at first use.
//
// Disarmed (the default), InjectFault is a cheap always-OK call.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  // Arms a single fault: the `nth` (1-based) call to InjectFault whose site
  // contains `pattern` fails. nth <= 0 disarms. Resets the call counter.
  void Arm(std::string pattern, int nth);
  void Disarm();

  Status Inject(std::string_view site);

 private:
  FaultInjector();

  mutable std::mutex mu_;
  std::string pattern_;
  int nth_ = 0;
  int count_ = 0;
};

// Convenience entry point used by IO code.
inline Status InjectFault(std::string_view site) {
  return FaultInjector::Instance().Inject(site);
}

// RAII arming for tests; disarms (and resets the counter) on destruction.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection(std::string pattern, int nth);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace qpe::util

#endif  // QPE_UTIL_FAULT_INJECTION_H_
