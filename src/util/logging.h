#ifndef COPYATTACK_UTIL_LOGGING_H_
#define COPYATTACK_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace copyattack::util {

/// Severity levels for the project logger, ordered by verbosity.
enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,
};

/// Returns the short human-readable tag for a level ("DEBUG", "INFO", ...).
const char* LogLevelName(LogLevel level);

/// Sets the global minimum severity that will be emitted. Thread-safe.
void SetLogLevel(LogLevel level);

/// Emits one formatted log line to stderr if `level` passes the filter.
/// Lines look like: `[INFO  12.345s] message`.
void LogMessage(LogLevel level, const std::string& message);

namespace internal_logging {

/// Stream adaptor that buffers a message and emits it on destruction.
class LogLineBuilder {
 public:
  explicit LogLineBuilder(LogLevel level) : level_(level) {}
  LogLineBuilder(const LogLineBuilder&) = delete;
  LogLineBuilder& operator=(const LogLineBuilder&) = delete;
  ~LogLineBuilder() { LogMessage(level_, stream_.str()); }

  template <typename T>
  LogLineBuilder& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal_logging
}  // namespace copyattack::util

#define CA_LOG(level)                                      \
  ::copyattack::util::internal_logging::LogLineBuilder(    \
      ::copyattack::util::LogLevel::k##level)

#endif  // COPYATTACK_UTIL_LOGGING_H_
