#ifndef GEOALIGN_OBS_TIMER_H_
#define GEOALIGN_OBS_TIMER_H_

#include <chrono>
#include <cstdint>

namespace geoalign::obs {

/// THE clock-source policy: every timing measurement in the tree —
/// stopwatches, span tracing, latency histograms, benchmark harnesses —
/// reads std::chrono::steady_clock through the helpers below. Nothing
/// outside src/obs/ may call a chrono clock directly (enforced by the
/// geoalign-raw-clock lint), so monotonicity and comparability of
/// timestamps are decided in exactly one place.
using Clock = std::chrono::steady_clock;

/// Raw monotonic timestamp in clock ticks. Cheap enough for hot paths;
/// convert with TicksToSeconds/TicksToMicros only at reporting time.
inline int64_t NowTicks() { return Clock::now().time_since_epoch().count(); }

inline double TicksToSeconds(int64_t ticks) {
  return std::chrono::duration<double>(Clock::duration(ticks)).count();
}

inline double TicksToMicros(int64_t ticks) {
  return std::chrono::duration<double, std::micro>(Clock::duration(ticks))
      .count();
}

/// Monotonic wall-clock stopwatch (steady_clock via the policy above).
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart() { start_ = NowTicks(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const { return TicksToSeconds(NowTicks() - start_); }

  /// Microseconds elapsed since construction or the last Restart().
  double ElapsedMicros() const { return TicksToMicros(NowTicks() - start_); }

 private:
  int64_t start_ = 0;
};

}  // namespace geoalign::obs

namespace geoalign {
// Historical spelling: Stopwatch predates the obs subsystem and is used
// throughout core/bench; keep it reachable unqualified.
using obs::Stopwatch;
}  // namespace geoalign

#endif  // GEOALIGN_OBS_TIMER_H_
