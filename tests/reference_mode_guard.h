// Scoped XLV_REFERENCE_SIM override shared by the suites that compare the
// fast mutant-simulation path with full replay (analysis/mutation_analysis.h).
#pragma once

#include <cstdlib>
#include <string>

namespace xlv {

/// Scoped XLV_REFERENCE_SIM override; restores the previous value so a
/// failing test cannot leak reference mode into the rest of the suite.
class ReferenceModeGuard {
 public:
  explicit ReferenceModeGuard(bool enable) {
    const char* prev = std::getenv("XLV_REFERENCE_SIM");
    had_ = prev != nullptr;
    if (had_) prev_ = prev;
    if (enable) {
      ::setenv("XLV_REFERENCE_SIM", "1", 1);
    } else {
      ::unsetenv("XLV_REFERENCE_SIM");
    }
  }
  ~ReferenceModeGuard() {
    if (had_) {
      ::setenv("XLV_REFERENCE_SIM", prev_.c_str(), 1);
    } else {
      ::unsetenv("XLV_REFERENCE_SIM");
    }
  }
  ReferenceModeGuard(const ReferenceModeGuard&) = delete;
  ReferenceModeGuard& operator=(const ReferenceModeGuard&) = delete;

 private:
  bool had_ = false;
  std::string prev_;
};

}  // namespace xlv
