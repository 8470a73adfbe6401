// Strict parsing of numeric command-line arguments, shared by the tools.
//
// strtoull/strtod alone accept a leading sign ("-1" wraps to 2^64-1), stop
// silently at the first bad character ("12x" reads as 12, "abc" as 0) and
// saturate on overflow. Both parsers here accept a value only when the
// whole argument is the number, and report failure instead of guessing.

#ifndef BOXAGG_TOOLS_PARSE_NUMBER_H_
#define BOXAGG_TOOLS_PARSE_NUMBER_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace boxagg {

/// Parses `v` as a decimal integer that fits in T: digits only, no sign,
/// no surrounding characters, no overflow.
template <class T>
bool ParseUnsigned(const char* v, T* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (*v < '0' || *v > '9' || *end != '\0' || errno == ERANGE ||
      x > std::numeric_limits<T>::max()) {
    return false;
  }
  *out = static_cast<T>(x);
  return true;
}

/// Parses `v` as one floating-point number (strtod syntax, so "inf" and
/// "nan" are accepted; callers check the range they need). Leading spaces,
/// trailing characters and overflow to ±inf are rejected.
inline bool ParseDouble(const char* v, double* out) {
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v, &end);
  if (end == v || std::isspace(static_cast<unsigned char>(*v)) ||
      *end != '\0' || (errno == ERANGE && std::isinf(x))) {
    return false;
  }
  *out = x;
  return true;
}

}  // namespace boxagg

#endif  // BOXAGG_TOOLS_PARSE_NUMBER_H_
