// Perf-ratchet comparator (util/bench_compare.h): parser, direction rules,
// and the CI contract — identical reports pass, a deliberately injected
// slowdown fails.
#include "util/bench_compare.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace xlv::util {
namespace {

/// A report in the exact shape bench/common.h writeBenchJson() emits.
constexpr const char* kSample = R"({
  "bench": "campaign_shard",
  "metrics": {
    "wall_seconds_single": 0.123,
    "cycles_simulated_fast": 4000,
    "cycle_reduction_single": 12.5,
    "self_check_ok": 1
  }
})";

BenchReport make(const char* bench,
                 std::vector<std::pair<std::string, double>> metrics) {
  BenchReport r;
  r.bench = bench;
  r.metrics = std::move(metrics);
  return r;
}

TEST(BenchCompare, ParsesWriterShapedJson) {
  const BenchReport r = parseBenchJson(kSample);
  EXPECT_EQ("campaign_shard", r.bench);
  ASSERT_EQ(4u, r.metrics.size());
  EXPECT_EQ("wall_seconds_single", r.metrics[0].first);
  EXPECT_DOUBLE_EQ(0.123, r.metrics[0].second);
  ASSERT_NE(nullptr, r.find("cycles_simulated_fast"));
  EXPECT_DOUBLE_EQ(4000.0, *r.find("cycles_simulated_fast"));
  EXPECT_EQ(nullptr, r.find("absent"));
}

TEST(BenchCompare, MalformedReportsThrow) {
  EXPECT_THROW(parseBenchJson(""), std::invalid_argument);
  EXPECT_THROW(parseBenchJson("{\"metrics\": {}}"), std::invalid_argument);
  EXPECT_THROW(parseBenchJson("{\"bench\": \"x\"}"), std::invalid_argument);
  EXPECT_THROW(parseBenchJson("{\"bench\": \"x\", \"metrics\": {\"a\": }}"),
               std::invalid_argument);
  EXPECT_THROW(parseBenchJson("{\"bench\": \"x\", \"metrics\": {\"a\": 1"),
               std::invalid_argument);
}

TEST(BenchCompare, DirectionRulesFollowNames) {
  EXPECT_EQ(MetricDirection::Exact, metricDirection("self_check_ok"));
  EXPECT_EQ(MetricDirection::Exact, metricDirection("native_available"));
  EXPECT_EQ(MetricDirection::HigherIsBetter, metricDirection("native_speedup_single"));
  EXPECT_EQ(MetricDirection::HigherIsBetter, metricDirection("cycle_reduction_smoke"));
  EXPECT_EQ(MetricDirection::LowerIsBetter, metricDirection("cycles_simulated_fast"));
  EXPECT_EQ(MetricDirection::LowerIsBetter, metricDirection("cosimulations_sweep_cold"));
  EXPECT_EQ(MetricDirection::LowerIsBetter, metricDirection("native_source_bytes_single"));
  EXPECT_EQ(MetricDirection::Informational, metricDirection("wall_seconds_single"));
  EXPECT_EQ(MetricDirection::Informational, metricDirection("cycles_skipped_fast"));
  EXPECT_EQ(MetricDirection::Informational, metricDirection("points"));
}

TEST(BenchCompare, IdenticalReportsPass) {
  const BenchReport r = parseBenchJson(kSample);
  const BenchComparison cmp = compareBenchReports(r, r, 0.25);
  EXPECT_TRUE(cmp.ok);
  EXPECT_EQ(4u, cmp.rows.size());
  for (const auto& row : cmp.rows) EXPECT_FALSE(row.regressed);
}

TEST(BenchCompare, InjectedSlowdownFails) {
  // The CI-contract case: a deliberate 2x blow-up of the simulated-cycle
  // counter (far past any tolerance) must fail the ratchet.
  const BenchReport baseline =
      make("b", {{"cycles_simulated_fast", 4000.0}, {"self_check_ok", 1.0}});
  const BenchReport slow =
      make("b", {{"cycles_simulated_fast", 8000.0}, {"self_check_ok", 1.0}});
  const BenchComparison cmp = compareBenchReports(baseline, slow, 0.25);
  EXPECT_FALSE(cmp.ok);
  ASSERT_EQ(2u, cmp.rows.size());
  EXPECT_TRUE(cmp.rows[0].regressed);
  EXPECT_FALSE(cmp.rows[1].regressed);
  EXPECT_NE(std::string::npos, cmp.render().find("REGRESSION"));
}

TEST(BenchCompare, SpeedupDropFails) {
  const BenchReport baseline = make("b", {{"native_speedup_single", 4.0}});
  // Within tolerance: 4.0 * (1 - 0.25) = 3.0 is still acceptable...
  EXPECT_TRUE(compareBenchReports(baseline, make("b", {{"native_speedup_single", 3.0}}), 0.25).ok);
  // ...but a collapse below the slack line fails.
  EXPECT_FALSE(
      compareBenchReports(baseline, make("b", {{"native_speedup_single", 1.4}}), 0.25).ok);
}

TEST(BenchCompare, SelfCheckDropIsExact) {
  const BenchReport baseline = make("b", {{"self_check_ok", 1.0}});
  // Exact metrics get no tolerance: any drop below baseline regresses.
  EXPECT_FALSE(compareBenchReports(baseline, make("b", {{"self_check_ok", 0.0}}), 10.0).ok);
  EXPECT_TRUE(compareBenchReports(baseline, make("b", {{"self_check_ok", 1.0}}), 0.0).ok);
}

TEST(BenchCompare, MissingMetricRegressesAndNewMetricInforms) {
  const BenchReport baseline = make("b", {{"cycles_simulated_fast", 100.0}});
  const BenchReport current = make("b", {{"brand_new_metric", 7.0}});
  const BenchComparison cmp = compareBenchReports(baseline, current, 0.25);
  EXPECT_FALSE(cmp.ok);
  ASSERT_EQ(2u, cmp.rows.size());
  EXPECT_TRUE(cmp.rows[0].missing);
  EXPECT_TRUE(cmp.rows[0].regressed);
  EXPECT_TRUE(cmp.rows[1].currentOnly);
  EXPECT_FALSE(cmp.rows[1].regressed);
}

TEST(BenchCompare, InformationalMetricsNeverGate) {
  const BenchReport baseline = make("b", {{"wall_seconds_single", 0.1}});
  // A 100x wall-time blow-up on an absolute timing is host noise, not a
  // ratchet failure (the gating metrics are counters and ratios).
  EXPECT_TRUE(compareBenchReports(baseline, make("b", {{"wall_seconds_single", 10.0}}), 0.25).ok);
}

TEST(BenchCompare, MismatchedBenchNamesThrow) {
  EXPECT_THROW(compareBenchReports(make("a", {}), make("b", {}), 0.25),
               std::invalid_argument);
  EXPECT_THROW(compareBenchReports(make("a", {}), make("a", {}), -1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace xlv::util
