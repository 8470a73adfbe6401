#include "obs/logger.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace boxagg {
namespace obs {

namespace {

void Log(char tag, const char* fmt, va_list ap) {
  // Format into one buffer and emit with a single fwrite so concurrent
  // log lines interleave whole, not character-by-character.
  char buf[1024];
  int n = std::snprintf(buf, sizeof(buf), "[%c] ", tag);
  if (n < 0) return;
  int m = std::vsnprintf(buf + n, sizeof(buf) - static_cast<size_t>(n) - 1,
                         fmt, ap);
  if (m < 0) return;
  size_t len = static_cast<size_t>(n) +
               std::min(static_cast<size_t>(m), sizeof(buf) - 2 -
                                                    static_cast<size_t>(n));
  buf[len++] = '\n';
  std::fwrite(buf, 1, len, stderr);
}

}  // namespace

void LogInfo(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  Log('I', fmt, ap);
  va_end(ap);
}

void LogError(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  Log('E', fmt, ap);
  va_end(ap);
}

}  // namespace obs
}  // namespace boxagg
