// Strict number parsing for outside input: the XLV_* environment knobs and
// the tools' command-line flags (util/cli.h).
//
// Every integer knob the project reads from the environment (XLV_THREADS,
// XLV_WORKERS, XLV_BATCH, XLV_REFERENCE_SIM, XLV_HEARTBEAT_MS, the
// XLV_TEST_* fault hooks, ...) goes through envLongStrict: an unset or
// empty variable means "use the default", anything else must parse
// completely and lie in range, or the call throws. A typo stops the run; it
// never silently runs with a default. A flag's number goes through the same
// parseLongStrict / parseDoubleStrict, so `XLV_BATCH=2x` and `--batch 2x`
// fail alike.
#pragma once

#include <climits>
#include <string>
#include <string_view>

namespace xlv::util {

/// The value of `text` when it is a whole decimal integer in [min, max];
/// std::invalid_argument — "<what>='<text>' ..." naming the knob or flag
/// and the offending value — otherwise.
long parseLongStrict(std::string_view what, const std::string& text, long min = LONG_MIN,
                     long max = LONG_MAX);

/// The value of `text` when it is a finite decimal (digits, '.', an
/// exponent, a sign: no blanks, hex floats, inf or nan);
/// std::invalid_argument naming `what` and the value otherwise. `25%`,
/// `0.25x` and `0,25` are rejected, not read as their numeric prefix.
double parseDoubleStrict(std::string_view what, const std::string& text);

/// `fallback` when the variable is unset or empty; parseLongStrict(name,
/// value, min, max) otherwise. The fallback itself is not range-checked
/// (callers use out-of-range fallbacks as "not set").
long envLongStrict(const char* name, long fallback, long min = LONG_MIN,
                   long max = LONG_MAX);

}  // namespace xlv::util
