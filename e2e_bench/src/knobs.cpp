#include "knobs.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace xlv::e2e {

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"plasma_long", "sweep_shared", "served_mix"};
  return names;
}

namespace {

[[noreturn]] void fail(const std::string& knob, const std::string& what,
                       const std::string& value) {
  throw KnobError(knob + ": " + what + " '" + value + "'");
}

}  // namespace

std::uint64_t parseUnsigned(const std::string& knob, const std::string& value) {
  if (value.empty() || !std::all_of(value.begin(), value.end(),
                                    [](unsigned char c) { return c >= '0' && c <= '9'; })) {
    fail(knob, "expected a non-negative decimal integer, got", value);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (errno == ERANGE || end != value.c_str() + value.size()) {
    fail(knob, "integer out of range", value);
  }
  return static_cast<std::uint64_t>(v);
}

bool parseFlag01(const std::string& knob, const std::string& value) {
  if (value == "0") return false;
  if (value == "1") return true;
  fail(knob, "expected 0 or 1, got", value);
}

BenchArgs parseBenchArgs(const std::vector<std::string>& args) {
  BenchArgs out;
  bool haveWorkload = false, haveSeed = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (i + 1 >= args.size()) throw KnobError(flag + ": missing value");
    const std::string& v = args[++i];
    if (flag == "--workload") {
      const auto& names = workloadNames();
      if (std::find(names.begin(), names.end(), v) == names.end()) {
        fail(flag, "unknown workload", v);
      }
      out.workload = v;
      haveWorkload = true;
    } else if (flag == "--seed") {
      out.seed = parseUnsigned(flag, v);
      haveSeed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parseUnsigned(flag, v);
      if (s < 1 || s > 3600) fail(flag, "expected 1..3600 seconds, got", v);
      out.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      out.trace = parseFlag01(flag, v);
    } else if (flag == "--trace-out") {
      if (v.empty()) fail(flag, "expected a file name, got", v);
      out.traceOut = v;
    } else {
      throw KnobError("unknown argument '" + flag + "'");
    }
  }
  if (!haveWorkload) throw KnobError("--workload: required");
  if (!haveSeed) throw KnobError("--seed: required");
  return out;
}

}  // namespace xlv::e2e
