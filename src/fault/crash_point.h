#ifndef COPYATTACK_FAULT_CRASH_POINT_H_
#define COPYATTACK_FAULT_CRASH_POINT_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace copyattack::fault {

/// Thrown instead of aborting when an armed crash point fires in
/// `CrashMode::kThrow` — the in-process stand-in for a hard kill that
/// unit tests catch to iterate the crash schedule over every site
/// without forking.
struct CrashForTest {
  std::string site;     ///< the `CA_CRASH_POINT` name that fired
  std::uint64_t hit = 0;  ///< 1-based global hit index at which it fired
};

/// What an armed crash point does when its scheduled hit arrives.
enum class CrashMode {
  /// Abort the process with `std::_Exit(kCrashExitCode)` — no flushing,
  /// no destructors, the closest in-process approximation of SIGKILL.
  /// Soak mode: the parent (tools/soak_runner) waits for this code.
  kExit,
  /// Throw `CrashForTest` on the hitting thread. Unit-test mode.
  kThrow,
};

/// Exit status of a `kExit` crash — distinct from every normal failure
/// path so the soak driver can tell "died at the scheduled crash point"
/// from "died of an actual bug".
inline constexpr int kCrashExitCode = 134;

/// A deterministic process-crash schedule: fire at the `at_hit`-th
/// dynamic execution of a named crash point (or of any crash point when
/// `site` is empty). Same discipline as `fault::FaultScheduleConfig` —
/// the schedule depends only on its own parameters, never on payloads,
/// so a given (seed, cycle) pair kills the process at a bit-identical
/// point on every run.
struct CrashScheduleConfig {
  bool enabled = false;
  CrashMode mode = CrashMode::kExit;
  /// Fire only at this `CA_CRASH_POINT` name; empty matches every site.
  std::string site;
  /// 1-based hit index at which to fire, counted among the hits that
  /// match `site` (global when `site` is empty); 0 = never fire
  /// (count/trace only — how the soak driver's reference run measures
  /// the universe).
  std::uint64_t at_hit = 0;
  /// When non-empty, append one `<site>\n` line per hit (O_APPEND +
  /// direct write(2), so a `kExit` crash loses nothing buffered).
  std::string trace_path;

  /// Derives a count-only → kill-at-random-hit schedule for soak cycle
  /// `cycle`: `at_hit = 1 + DeriveStreamSeed(seed, cycle) % universe`,
  /// where `universe` is the total hit count of an uninterrupted run.
  static CrashScheduleConfig Seeded(std::uint64_t seed, std::uint64_t cycle,
                                    std::uint64_t universe);
};

/// Installs `config` as the process-wide crash schedule and resets the
/// hit counter. Thread-safe, but arm/disarm from a quiescent point — the
/// schedule is consulted by every thread passing a crash point.
void ArmCrashSchedule(const CrashScheduleConfig& config);

/// Removes the schedule; crash points return to one-atomic-load no-ops.
void DisarmCrashSchedule();

/// True when a schedule is armed (even a count-only one).
bool CrashScheduleArmed();

/// Crash-point executions observed since the last `ArmCrashSchedule`.
std::uint64_t CrashPointHits();

namespace internal {
/// Armed flag on the hot side of the macro: disarmed crash points cost
/// one relaxed atomic load and a predictable branch.
extern std::atomic<bool> g_crash_schedule_armed;

/// Slow path: counts the hit, traces it, and fires (exit or throw) when
/// the schedule says so. Only called while armed.
void CrashPointHitSlow(const char* site);
}  // namespace internal

/// Body of `CA_CRASH_POINT(site)`: a named, schedulable process-death
/// site. Free to pass when disarmed.
inline void CrashPointHit(const char* site) {
  if (internal::g_crash_schedule_armed.load(std::memory_order_acquire)) {
    internal::CrashPointHitSlow(site);
  }
}

}  // namespace copyattack::fault

/// Marks a named crash site. Threaded through the checkpoint write path,
/// shard boundaries and job transitions (DESIGN.md §16); the analyzer's
/// checkpoint pass enforces that save bodies enumerate all three
/// checkpoint rotation phases.
#define CA_CRASH_POINT(site) ::copyattack::fault::CrashPointHit(site)

#endif  // COPYATTACK_FAULT_CRASH_POINT_H_
