// bench_compare — the CI perf ratchet (util/bench_compare.h).
//
// Compares freshly produced BENCH_<name>.json reports against the committed
// baselines in bench/baselines/ and exits nonzero when a ratcheted metric
// regressed. Run the benches at the SAME XLV_BENCH_SCALE the baselines were
// recorded at (see bench/baselines/README note in src/campaign/README.md) —
// the gating metrics are either scale-deterministic work counters or
// host-cancelling ratios, so a healthy run passes on any machine.
//
//   bench_compare --baseline-dir bench/baselines [--tolerance 0.25] BENCH_x.json...
//   bench_compare --baseline bench/baselines/BENCH_x.json --current BENCH_x.json
//
// Every flag is declared once, in main's flag table. --tolerance parses
// strictly (util::parseDoubleStrict): `25%` or `0.25x` is a usage error, not
// tolerance 25 or 0.25.
//
// Exit codes: 0 all reports within the ratchet, 1 usage / unreadable or
// malformed report, 2 at least one metric regressed.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "util/bench_compare.h"
#include "util/cli.h"

namespace {

using namespace xlv;

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "bench_compare: %s\n\n", error);
  std::fputs(
      "usage:\n"
      "  bench_compare --baseline-dir DIR [--tolerance T] CURRENT_JSON...\n"
      "  bench_compare --baseline FILE --current FILE [--tolerance T]\n"
      "\n"
      "Each CURRENT_JSON is compared against DIR/<its basename>. T is the\n"
      "fractional slack for the higher/lower-is-better rules (default 0.25).\n"
      "Exit 0 when every ratcheted metric holds, 2 on any regression.\n",
      stderr);
  std::exit(1);
}

std::string baseName(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

int main(int argc, char** argv) {
  std::string baselineDir, baselineFile, currentFile;
  double tolerance = 0.25;
  const std::vector<util::Flag> flags = {
      {{"--baseline-dir"}, &baselineDir, {}},
      {{"--baseline"}, &baselineFile, {}},
      {{"--current"}, &currentFile, {}},
      {{"--tolerance"}, &tolerance, {}},
  };
  std::vector<std::string> currents;
  try {
    currents = util::parseCommandLine(flags, "", util::kAnyOperands,
                                      std::vector<std::string>(argv + 1, argv + argc));
  } catch (const util::UsageError& e) {
    usage(e.what());
  }
  if (tolerance < 0.0) usage("--tolerance must be >= 0");

  std::vector<std::pair<std::string, std::string>> pairs;  // (baseline, current)
  if (!baselineFile.empty() || !currentFile.empty()) {
    if (baselineFile.empty() || currentFile.empty() || !baselineDir.empty() ||
        !currents.empty()) {
      usage("--baseline/--current form takes exactly those two files");
    }
    pairs.emplace_back(baselineFile, currentFile);
  } else {
    if (baselineDir.empty()) usage("--baseline-dir DIR (or --baseline/--current) required");
    if (currents.empty()) usage("no current report files given");
    for (const auto& cur : currents) {
      pairs.emplace_back(baselineDir + "/" + baseName(cur), cur);
    }
  }

  bool regressed = false;
  try {
    for (const auto& [basePath, curPath] : pairs) {
      const util::BenchReport baseline = util::parseBenchJson(util::readFile(basePath));
      const util::BenchReport current = util::parseBenchJson(util::readFile(curPath));
      const util::BenchComparison cmp =
          util::compareBenchReports(baseline, current, tolerance);
      std::fputs(cmp.render().c_str(), stdout);
      regressed = regressed || !cmp.ok;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 1;
  }
  if (regressed) {
    std::fprintf(stderr,
                 "bench_compare: performance ratchet failed — a gated metric regressed "
                 "beyond tolerance %.2f\n",
                 tolerance);
    return 2;
  }
  std::printf("bench_compare: %zu report(s) within the ratchet (tolerance %.2f)\n",
              pairs.size(), tolerance);
  return 0;
}
