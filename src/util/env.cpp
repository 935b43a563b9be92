#include "util/env.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace xlv::util {

long parseLongStrict(std::string_view what, const std::string& text, long min, long max) {
  const std::string quoted = std::string(what) + "='" + text + "' ";
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument(quoted + "is not a whole decimal integer");
  }
  if (v < min || v > max) {
    throw std::invalid_argument(quoted + "is outside [" + std::to_string(min) + ", " +
                                std::to_string(max) + "]");
  }
  return v;
}

double parseDoubleStrict(std::string_view what, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  // The charset check rejects what strtod would otherwise accept: leading
  // blanks, hex floats, inf and nan.
  if (text.find_first_not_of("0123456789.eE+-") != std::string::npos ||
      end == text.c_str() || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    throw std::invalid_argument(std::string(what) + "='" + text + "' is not a finite decimal");
  }
  return v;
}

long envLongStrict(const char* name, long fallback, long min, long max) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return parseLongStrict(name, s, min, max);
}

}  // namespace xlv::util
