#ifndef QPE_DRIFT_MONITOR_H_
#define QPE_DRIFT_MONITOR_H_

#include <cstdint>

#include "drift/detector.h"

namespace qpe::drift {

// The sentinel's serving state. Values are stable wire constants: they ride
// in the v2 ENCODE-response drift trailer, so reordering them is a protocol
// break.
enum class DriftState : uint8_t {
  kHealthy = 0,
  kSuspect = 1,   // score crossed the suspect threshold; watching
  kDrifted = 2,   // sustained drift: serving is stale, adaptation due
  kAdapting = 3,  // incremental fine-tune in flight; still serving stale
};
const char* DriftStateName(DriftState state);

struct DriftMonitorConfig {
  double suspect_threshold = 0.25;
  double drift_threshold = 0.45;
  // Consecutive windows at/above drift_threshold before DRIFTED. >= 2 by
  // contract so a single bursty window can never flap the state machine.
  int windows_to_drift = 2;
  // Consecutive windows below suspect_threshold before recovering to
  // HEALTHY (from SUSPECT, or from DRIFTED if the workload reverts on its
  // own before adaptation starts).
  int windows_to_recover = 3;
};

// Hysteresis state machine over the detector's window scores:
//
//            score >= suspect                high streak >= windows_to_drift
//   HEALTHY ----------------> SUSPECT -----------------------------> DRIFTED
//      ^                        |  ^                                    |
//      |  low streak >=         |  |                                    | BeginAdaptation()
//      |  windows_to_recover    |  |        score >= suspect            v
//      +------------------------+  +--------------------------------ADAPTING
//      ^                                                                |
//      +----------------------------------------------------------------+
//                        CompleteAdaptation()
//
// OnWindow drives the score-based edges; Begin/Complete/AbortAdaptation are
// the daemon's explicit edges. ADAPTING ignores scores entirely — the
// detector is still comparing against the *old* baseline while the new one
// is being trained.
class DriftMonitor {
 public:
  explicit DriftMonitor(const DriftMonitorConfig& config = {});

  DriftState OnWindow(const DriftWindowReport& report);

  // DRIFTED -> ADAPTING. Returns false (no-op) from any other state.
  bool BeginAdaptation();
  // ADAPTING -> HEALTHY (adaptation committed; detector rebaselined).
  void CompleteAdaptation();
  // ADAPTING -> DRIFTED (adaptation failed; still stale, retry eligible).
  void AbortAdaptation();
  // Restart path: a persisted adaptation manifest proves the daemon died
  // mid-ADAPTING; re-enter it directly.
  void ForceAdapting();

  DriftState state() const { return state_; }
  // Responses must flag staleness the moment drift is declared and keep
  // flagging it until the refreshed model is actually serving.
  bool stale() const {
    return state_ == DriftState::kDrifted || state_ == DriftState::kAdapting;
  }
  uint64_t alarms() const { return alarms_; }
  double last_score() const { return last_score_; }
  const DriftMonitorConfig& config() const { return config_; }

 private:
  DriftMonitorConfig config_;
  DriftState state_ = DriftState::kHealthy;
  uint64_t alarms_ = 0;
  int high_streak_ = 0;
  int low_streak_ = 0;
  double last_score_ = 0;
};

}  // namespace qpe::drift

#endif  // QPE_DRIFT_MONITOR_H_
