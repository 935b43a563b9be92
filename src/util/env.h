// Strict parsing of the XLV_* environment knobs.
//
// Every integer knob the project reads from the environment (XLV_THREADS,
// XLV_WORKERS, XLV_BATCH, XLV_REFERENCE_SIM, XLV_HEARTBEAT_MS, the
// XLV_TEST_* fault hooks, ...) goes through envLongStrict: an unset or
// empty variable means "use the default", anything else must parse
// completely and lie in range, or the call throws. A typo stops the run; it
// never silently runs with a default.
#pragma once

#include <climits>

namespace xlv::util {

/// `fallback` when the variable is unset or empty; the parsed value when it
/// is a whole decimal integer in [min, max]; std::invalid_argument — naming
/// the variable and the offending value — otherwise. The fallback itself is
/// not range-checked (callers use out-of-range fallbacks as "not set").
long envLongStrict(const char* name, long fallback, long min = LONG_MIN,
                   long max = LONG_MAX);

}  // namespace xlv::util
