// Shared helpers for the benchmark binaries. The paper benches regenerate
// the table or figure their file names after (table5_mutation.cpp is Table
// 5, fig4_razor_trace.cpp is Figure 4) and print it in the paper's
// row/column structure; ablation_*, crosscheck_* and campaign_* are this
// repository's own experiments.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "ips/case_study.h"

namespace xlv::bench {

/// Cycle budget multiplier: XLV_BENCH_SCALE=2 doubles every simulation
/// length (slower, steadier timings); 0.5 halves them (quick smoke run).
inline double scale() {
  const char* s = std::getenv("XLV_BENCH_SCALE");
  if (s == nullptr) return 1.0;
  const double v = std::atof(s);
  return v > 0.0 ? v : 1.0;
}

inline std::uint64_t scaled(std::uint64_t cycles) {
  const double v = static_cast<double>(cycles) * scale();
  return v < 1.0 ? 1 : static_cast<std::uint64_t>(v);
}

inline std::vector<ips::CaseStudy> allCases() {
  std::vector<ips::CaseStudy> cases;
  cases.push_back(ips::buildPlasmaCase());
  cases.push_back(ips::buildDspCase());
  cases.push_back(ips::buildFilterCase());
  return cases;
}

inline void banner(const char* what, const char* paperRef) {
  std::printf("\n=== %s ===\n(reproduces %s; absolute times are host-dependent, the paper's\n shape — orderings, factors, crossovers — is the comparison target)\n\n",
              what, paperRef);
}

/// Machine-readable bench report: one JSON object per bench run so CI can
/// upload the file as an artifact and the perf trajectory (wall seconds,
/// simulated-vs-skipped mutant cycles, cache hits) is trackable PR over PR.
/// The output path comes from XLV_BENCH_JSON, defaulting to
/// BENCH_<benchName>.json in the working directory so two benches run
/// back-to-back never clobber each other's report.
inline void writeBenchJson(const std::string& benchName,
                           const std::vector<std::pair<std::string, double>>& metrics) {
  const char* env = std::getenv("XLV_BENCH_JSON");
  const std::string path =
      (env != nullptr && *env != '\0') ? env : "BENCH_" + benchName + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"metrics\": {\n", benchName.c_str());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "    \"%s\": %.17g%s\n", metrics[i].first.c_str(), metrics[i].second,
                 i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("bench json: %s\n", path.c_str());
}

}  // namespace xlv::bench
