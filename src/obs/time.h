#ifndef COPYATTACK_OBS_TIME_H_
#define COPYATTACK_OBS_TIME_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace copyattack::obs {

/// Test hook: when non-null, replaces the steady-clock read below. Lets
/// tests drive time-dependent logic (retry backoff deadlines, circuit
/// breaker cool-down) through a fake clock deterministically.
using MonotonicSourceFn = std::int64_t (*)();
inline std::atomic<MonotonicSourceFn> g_monotonic_source_for_test{nullptr};

/// Installs (or, with nullptr, removes) a fake monotonic time source.
/// Tests only; not thread-safe against in-flight timing reads that
/// straddle the swap, so install before starting any timed work.
inline void SetMonotonicSourceForTest(MonotonicSourceFn fn) {
  g_monotonic_source_for_test.store(fn, std::memory_order_relaxed);
}

/// The repository's single monotonic time source. All timing — spans,
/// histogram timers, wall-clock stopwatches — flows through here so the
/// lint wall can ban ad-hoc `steady_clock::now()` calls in the core/rec
/// layers (rule `raw-clock`) without losing any capability.
inline std::int64_t MonotonicNanos() {
  const MonotonicSourceFn fn =
      g_monotonic_source_for_test.load(std::memory_order_relaxed);
  if (fn != nullptr) return fn();
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
