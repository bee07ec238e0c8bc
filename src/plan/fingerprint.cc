#include "plan/fingerprint.h"

#include "plan/linearize.h"
#include "util/rng.h"

namespace qpe::plan {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline uint64_t FnvByte(uint64_t h, uint8_t b) {
  return (h ^ b) * kFnvPrime;
}

}  // namespace

uint64_t FingerprintTokens(const std::vector<OperatorType>& tokens) {
  uint64_t h = kFnvOffset;
  for (const OperatorType& t : tokens) {
    h = FnvByte(h, t.level1);
    h = FnvByte(h, t.level2);
    h = FnvByte(h, t.level3);
  }
  // Full-avalanche mix of the FNV state.
  return util::Mix64Finalize(h);
}

uint64_t FingerprintPlan(const PlanNode& root) {
  return FingerprintTokens(LinearizeDfsBracket(root));
}

}  // namespace qpe::plan
