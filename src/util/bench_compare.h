// Perf-ratchet comparison of bench JSON reports (ISSUE 6 satellite).
//
// Every bench binary writes a BENCH_<name>.json report (bench/common.h,
// writeBenchJson): a flat map of metric name -> double. Committed baselines
// live under bench/baselines/; CI re-runs the benches and feeds both files
// to tools/bench_compare, which exits nonzero when a ratcheted metric
// regressed — so a perf regression fails the pipeline like a test failure,
// instead of decaying silently PR over PR.
//
// Not every metric can gate a heterogeneous CI fleet. The direction rules,
// derived from the metric NAME so benches stay self-describing:
//
//   *_ok, *_available           exact    — self-check booleans: current must
//                                          be >= baseline (a 1 -> 0 drop is
//                                          a broken invariant, not noise);
//   *speedup*, *reduction*      higher   — machine-relative ratios (two
//                                          timings on the same host, so host
//                                          speed cancels); current must be
//                                          >= baseline * (1 - tolerance);
//   cycles_simulated*,          lower    — deterministic work counters for a
//   cosimulations*                         fixed XLV_BENCH_SCALE or seed;
//                                          current must be
//                                          <= baseline * (1 + tol);
//   native_source_bytes*        lower    — emitted native source size, which
//                                          the compile time grows with;
//   everything else             info     — absolute seconds, point counts,
//                                          cache ledgers: host-dependent,
//                                          reported but never gating.
//
// A metric present in the baseline but MISSING from the current report is a
// regression (a renamed metric must not silently drop out of the ratchet);
// extra current-only metrics are reported as informational.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace xlv::util {

/// One parsed bench report: the bench name plus metric (name, value) pairs
/// in file order.
struct BenchReport {
  std::string bench;
  std::vector<std::pair<std::string, double>> metrics;

  const double* find(std::string_view name) const noexcept;
};

/// Parse a writeBenchJson()-style report. Throws std::invalid_argument on
/// files the bench writer cannot have produced (no "bench" key, malformed
/// metric values) — a truncated artifact must fail the ratchet loudly.
BenchReport parseBenchJson(std::string_view text);

enum class MetricDirection { Exact, HigherIsBetter, LowerIsBetter, Informational };

/// The name-derived direction rule (see file comment).
MetricDirection metricDirection(std::string_view name) noexcept;

const char* metricDirectionName(MetricDirection d) noexcept;

struct MetricComparison {
  std::string name;
  MetricDirection direction = MetricDirection::Informational;
  double baseline = 0.0;
  double current = 0.0;
  bool missing = false;    ///< in baseline but absent from current
  bool currentOnly = false;  ///< in current but absent from baseline (info)
  bool regressed = false;
};

struct BenchComparison {
  std::string bench;
  std::vector<MetricComparison> rows;
  bool ok = true;  ///< no row regressed

  /// Human-readable per-row summary (one line each), regressions marked.
  std::string render() const;
};

/// Compare a current report against its committed baseline. `tolerance` is
/// the fractional slack for the higher/lower-is-better rules (0.25 = 25%).
/// Throws std::invalid_argument when the reports name different benches.
BenchComparison compareBenchReports(const BenchReport& baseline,
                                    const BenchReport& current, double tolerance);

}  // namespace xlv::util
