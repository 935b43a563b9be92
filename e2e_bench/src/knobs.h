// Strict command-line knobs of the end-to-end benchmark.
//
// Every value the benchmark takes from outside is parsed whole: a seed of
// "12abc", a budget of "1.5" or an unknown workload name stops the run with
// a message naming the knob and the offending value. Nothing silently falls
// back to a default.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace xlv::e2e {

/// A malformed knob; what() names the knob and the value.
class KnobError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// The workloads, in the order `run.py --workload all` runs them.
const std::vector<std::string>& workloadNames();

struct BenchArgs {
  std::string workload;    ///< one of workloadNames()
  std::uint64_t seed = 0;  ///< draws every generated input
  int seconds = 10;        ///< measured time budget per workload
  bool trace = false;      ///< the traced per-layer run instead of the timed one
  /// Chrome trace-event file of the traced run ("" = e2e_trace_<workload>.json).
  std::string traceOut;
};

/// Whole-string decimal parses; throw KnobError("<knob>: invalid ... '<v>'").
std::uint64_t parseUnsigned(const std::string& knob, const std::string& value);
bool parseFlag01(const std::string& knob, const std::string& value);

/// Parse `--workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]`.
/// --workload and --seed are required.
BenchArgs parseBenchArgs(const std::vector<std::string>& args);

}  // namespace xlv::e2e
