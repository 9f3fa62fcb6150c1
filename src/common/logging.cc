#include "common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace caldera {
namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << (level == LogLevel::kFatal ? "F" : "W") << " " << file
          << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
  std::fflush(stderr);
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace internal_logging
}  // namespace caldera
