#ifndef CALDERA_COMMON_LOGGING_H_
#define CALDERA_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace caldera {
namespace internal_logging {

enum class LogLevel { kWarning, kFatal };

/// Sink for a single log statement; flushes (and aborts for kFatal) on
/// destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal_logging

#define CALDERA_LOG_WARNING                                     \
  ::caldera::internal_logging::LogMessage(                      \
      ::caldera::internal_logging::LogLevel::kWarning, __FILE__, __LINE__)
#define CALDERA_LOG_FATAL                                       \
  ::caldera::internal_logging::LogMessage(                      \
      ::caldera::internal_logging::LogLevel::kFatal, __FILE__, __LINE__)

// CHECK macros abort with a message when the condition fails. They guard
// internal invariants (programming errors), not user input — user input
// errors surface as Status.
#define CALDERA_CHECK(cond)                                     \
  if (!(cond))                                                  \
  CALDERA_LOG_FATAL << "Check failed: " #cond " "

#define CALDERA_CHECK_OK(expr)                                  \
  do {                                                          \
    const ::caldera::Status _st = (expr);                       \
    if (!_st.ok())                                              \
      CALDERA_LOG_FATAL << "Status not OK: " << _st.ToString(); \
  } while (0)

#define CALDERA_DCHECK(cond) CALDERA_CHECK(cond)

}  // namespace caldera

#endif  // CALDERA_COMMON_LOGGING_H_
