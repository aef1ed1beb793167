#ifndef COPYATTACK_CORE_RAW_CLOCK_VIOLATION_H_
#define COPYATTACK_CORE_RAW_CLOCK_VIOLATION_H_

// Deliberately non-conforming fixture for the raw-clock rule: this file
// lives under a `core/` path, where std::chrono clock reads are banned in
// favor of the obs timing facility. NOT compiled into any target; the
// analyze_selftest_lint ctest (WILL_FAIL) runs the analyzer over it.

#include <chrono>

inline long SeededRawClock() {
  return std::chrono::steady_clock::now()  // raw-clock: bypasses src/obs
      .time_since_epoch()
      .count();
}

#endif  // COPYATTACK_CORE_RAW_CLOCK_VIOLATION_H_
