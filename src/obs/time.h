#ifndef COPYATTACK_OBS_TIME_H_
#define COPYATTACK_OBS_TIME_H_

#include <chrono>
#include <cstdint>

namespace copyattack::obs {

/// The repository's single monotonic time source. All timing — spans,
/// histogram timers, wall-clock stopwatches — flows through here so the
/// lint wall can ban ad-hoc `steady_clock::now()` calls in the core/rec
/// layers (rule `raw-clock`) without losing any capability.
inline std::int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonic-clock stopwatch for wall-clock reporting.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(MonotonicNanos()) {}

  /// Restarts the stopwatch from zero.
  void Reset() { start_ns_ = MonotonicNanos(); }

  /// Returns the elapsed time since construction or the last Reset().
  double ElapsedSeconds() const {
    return static_cast<double>(MonotonicNanos() - start_ns_) * 1e-9;
  }

 private:
  std::int64_t start_ns_;
};

}  // namespace copyattack::obs

#endif  // COPYATTACK_OBS_TIME_H_
