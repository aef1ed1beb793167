#include "fault/crash_point.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <mutex>

#include "util/logging.h"
#include "util/rng.h"

namespace copyattack::fault {
namespace {

/// The armed schedule plus its counters, all behind one mutex. The hit
/// path takes the lock only while armed (chaos/soak runs), so the
/// disarmed product path never contends; while armed, serializing hits
/// is the point — the global hit index must be a total order for the
/// schedule to be deterministic under `jobs = 1` soak runs.
struct ScheduleState {
  std::mutex mutex;
  CrashScheduleConfig config;
  std::uint64_t hits = 0;
  /// Hits that matched the schedule's site filter — what `at_hit` indexes
  /// into (equal to `hits` for an unfiltered schedule). Without this, a
  /// filtered schedule could only fire when the N-th GLOBAL hit happened
  /// to land on the named site.
  std::uint64_t matched_hits = 0;
  int trace_fd = -1;
};

ScheduleState& State() {
  static ScheduleState state;
  return state;
}

void CloseTraceLocked(ScheduleState& state) {
  if (state.trace_fd >= 0) {
    ::close(state.trace_fd);
    state.trace_fd = -1;
  }
}

/// write(2) the whole buffer; EINTR-safe. Used for both the trace file
/// and the pre-_Exit stderr marker, so nothing depends on stdio buffers
/// that a simulated hard kill would lose.
void WriteAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ::ssize_t n = ::write(fd, data, size);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // trace/marker writes are best-effort
    }
    data += static_cast<std::size_t>(n);
    size -= static_cast<std::size_t>(n);
  }
}

}  // namespace

namespace internal {

std::atomic<bool> g_crash_schedule_armed{false};

void CrashPointHitSlow(const char* site) {
  ScheduleState& state = State();
  std::unique_lock<std::mutex> lock(state.mutex);
  if (!state.config.enabled) return;  // disarmed between load and lock
  ++state.hits;
  if (state.trace_fd >= 0) {
    std::string line(site);
    line += '\n';
    WriteAll(state.trace_fd, line.data(), line.size());
  }
  const bool site_matches =
      state.config.site.empty() || state.config.site == site;
  if (site_matches) ++state.matched_hits;
  if (state.config.at_hit == 0 || !site_matches ||
      state.matched_hits != state.config.at_hit) {
    return;
  }
  const CrashMode mode = state.config.mode;
  const std::uint64_t hit = state.hits;
  if (mode == CrashMode::kThrow) {
    // One-shot: disarm before throwing so recovery code re-entering the
    // same site (e.g. the post-crash checkpoint save) runs to completion.
    state.config.enabled = false;
    CloseTraceLocked(state);
    g_crash_schedule_armed.store(false, std::memory_order_release);
    lock.unlock();
    throw CrashForTest{site, hit};
  }
  // kExit: drop dead. No unlock, no flush, no destructors — the marker
  // goes straight to fd 2 so the soak parent can log where we died.
  std::string marker("crash-point: ");
  marker += site;
  marker += " fired at hit ";
  marker += std::to_string(hit);
  marker += '\n';
  WriteAll(2, marker.data(), marker.size());
  std::_Exit(kCrashExitCode);
}

}  // namespace internal

CrashScheduleConfig CrashScheduleConfig::Seeded(std::uint64_t seed,
                                                std::uint64_t cycle,
                                                std::uint64_t universe) {
  CrashScheduleConfig config;
  config.enabled = true;
  if (universe > 0) {
    config.at_hit = 1 + util::DeriveStreamSeed(seed, cycle) % universe;
  }
  return config;
}

void ArmCrashSchedule(const CrashScheduleConfig& config) {
  ScheduleState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  CloseTraceLocked(state);
  state.config = config;
  state.hits = 0;
  state.matched_hits = 0;
  if (state.config.enabled && !state.config.trace_path.empty()) {
    state.trace_fd = ::open(state.config.trace_path.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (state.trace_fd < 0) {
      CA_LOG(Warning) << "crash-point: cannot open trace "
                      << state.config.trace_path;
    }
  }
  internal::g_crash_schedule_armed.store(state.config.enabled,
                                         std::memory_order_release);
}

void DisarmCrashSchedule() {
  ScheduleState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.config = CrashScheduleConfig{};
  CloseTraceLocked(state);
  internal::g_crash_schedule_armed.store(false, std::memory_order_release);
}

bool CrashScheduleArmed() {
  return internal::g_crash_schedule_armed.load(std::memory_order_acquire);
}

std::uint64_t CrashPointHits() {
  ScheduleState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.hits;
}

}  // namespace copyattack::fault
