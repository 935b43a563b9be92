#include "util/env.h"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace xlv::util {

long envLongStrict(const char* name, long fallback, long min, long max) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument(std::string(name) + "='" + s +
                                "' is not a whole decimal integer");
  }
  if (v < min || v > max) {
    throw std::invalid_argument(std::string(name) + "='" + s + "' is outside [" +
                                std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return v;
}

}  // namespace xlv::util
