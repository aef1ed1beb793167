#include "util/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace copyattack::util {
namespace {

std::atomic<int> g_min_level{static_cast<int>(LogLevel::kInfo)};
std::mutex g_log_mutex;

double SecondsSinceStart() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarning:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF  ";
  }
  return "?????";
}

void SetLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void LogMessage(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) <
      g_min_level.load(std::memory_order_relaxed)) {
    return;
  }
  const double elapsed = SecondsSinceStart();
  std::lock_guard<std::mutex> lock(g_log_mutex);
  std::fprintf(stderr, "[%s %9.3fs] %s\n", LogLevelName(level), elapsed,
               message.c_str());
}

}  // namespace copyattack::util
