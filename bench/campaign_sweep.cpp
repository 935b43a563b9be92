// Campaign sweep: corner-sweep axes with the shared golden-trace and
// stage-prefix caches, versus the same sweep with every point self-contained.
//
// Workload: a three-axis sweep (STA corner x threshold fraction x mutant-set
// variant) on the DSP Razor flow — the configuration-coverage direction of
// PAPERS.md layered on paper Section 7's mutation analysis. Points that
// agree on (corner, threshold) share one elaborate+insertion prefix, and
// points that additionally produce the same augmented design share one
// golden-trace recording; the cache-disabled mode re-derives everything per
// point.
//
// Self-check (CI runs this binary): the per-item reports must be
// bit-identical between cache-enabled and cache-disabled modes, across
// thread counts AND against the XLV_REFERENCE_SIM=1 full-replay path; any
// divergence exits nonzero. So does a warm leg whose cache ledgers report
// zero hits, or a fast leg whose cyclesSkipped ledger is zero — a silently
// disabled cache or fast path must fail the bench, not ride a
// vacuously-identical comparison to a green exit.
#include <stdlib.h>

#include <cstdio>

#include "analysis/golden_cache.h"
#include "analysis/mutant_cache.h"
#include "bench/common.h"
#include "campaign/sweep.h"
#include "util/table.h"

namespace {

using namespace xlv;

campaign::SweepSpec makeSweep(int threads, bool shareCaches) {
  campaign::SweepSpec sweep;
  sweep.name = shareCaches ? "dsp-3axis-cached" : "dsp-3axis-cold";
  sweep.cases = {ips::buildDspCase()};
  sweep.base.sensorKind = insertion::SensorKind::Razor;
  sweep.base.testbenchCycles = bench::scaled(400);
  sweep.base.measureRtl = false;
  sweep.base.measureOptimized = false;
  // Disable the DSP's spread-relative binning so the corner and threshold
  // axes actually move the critical set (spread binning is scale-invariant:
  // a multiplicative corner derate would leave insertion unchanged and every
  // point would share one design).
  sweep.base.staSpreadFraction = -1.0;
  // PVT corners plus a low-voltage V-f operating point (Table 1's axis).
  sweep.axes.corners = sta::standardCorners();
  sweep.axes.corners.push_back(sta::Corner::atOperatingPoint(0.9));
  sweep.axes.thresholdFractions = {0.25, 0.35};
  sweep.axes.mutantSets = {core::MutantSetVariant::Full, core::MutantSetVariant::MinDelay,
                           core::MutantSetVariant::MaxDelay};
  sweep.executor = campaign::ExecutorConfig{threads};
  sweep.sharePrefixes = shareCaches;
  sweep.shareGoldenTraces = shareCaches;
  sweep.shareMutantResults = shareCaches;
  return sweep;
}

void clearCaches() { core::clearProcessCaches(); }

}  // namespace

int main() {
  bench::banner("Campaign sweep — corner axes with shared golden-trace cache",
                "the configuration-coverage extension of paper Sections 4/7");

  const std::size_t points = campaign::sweepCardinality(makeSweep(1, true));
  std::printf("DSP Razor, 3 axes: %zu corners x 2 thresholds x 3 mutant sets = %zu points\n\n",
              sta::standardCorners().size() + 1, points);

  bool ok = true;

  // --- full-replay reference (XLV_REFERENCE_SIM=1, no fast path) ------------
  ::setenv("XLV_REFERENCE_SIM", "1", 1);
  clearCaches();
  const campaign::CampaignResult reference = campaign::runSweep(makeSweep(1, false));
  ::unsetenv("XLV_REFERENCE_SIM");
  ok = ok && reference.ok();
  if (reference.cyclesSkipped != 0) {
    std::fprintf(stderr, "FAIL: reference leg skipped cycles (env toggle broken?)\n");
    ok = false;
  }

  // --- cache-disabled cold leg (every point self-contained, fast path) ------
  clearCaches();
  const campaign::CampaignResult cold = campaign::runSweep(makeSweep(1, false));
  ok = ok && cold.ok();
  if (!reference.sameResults(cold)) {
    std::fprintf(stderr,
                 "FAIL: divergence-driven fast path diverged from the full-replay "
                 "reference\n");
    ok = false;
  }
  if (cold.cyclesSkipped == 0) {
    std::fprintf(stderr,
                 "FAIL: fast path skipped zero cycles — checkpoint fast-forward/early "
                 "exit silently disabled?\n");
    ok = false;
  }

  util::Table t({"Mode", "Threads", "Wall (s)", "Sim work (s)", "Golden (s)", "Golden hits",
                 "Prefix hits", "Mutant hits", "Identical"});
  t.addRow({"cold", "1", util::Table::fixed(cold.wallSeconds, 3),
            util::Table::fixed(cold.simSeconds, 3), util::Table::fixed(cold.goldenSeconds, 3),
            "0", "0", "0", "ref"});

  // --- cache-enabled at increasing thread counts ----------------------------
  double cachedSerialWall = 0.0;
  double cachedGoldenSeconds = 0.0;
  for (int threads : {1, 2, 8}) {
    clearCaches();
    const campaign::CampaignResult r = campaign::runSweep(makeSweep(threads, true));
    // CampaignResult::sameResults — the same comparator the tests use.
    const bool identical = cold.sameResults(r);
    // Warm-leg hit floor: this sweep shares prefixes across mutant-set
    // points, golden traces across identical augmented designs and mutant
    // results across full ⊃ min/max — ledgers reporting zero reuse mean the
    // cache is silently off, which must fail the self-check even though the
    // reports still compare identical.
    const bool hitsOk =
        r.prefixCacheHits > 0 && r.goldenCacheHits > 0 && r.mutantCacheHits > 0;
    if (!hitsOk) {
      std::fprintf(stderr,
                   "FAIL: cached leg (threads=%d) reports zero cache hits "
                   "(prefix %d, golden %d, mutant %d) — cache silently disabled?\n",
                   threads, r.prefixCacheHits, r.goldenCacheHits, r.mutantCacheHits);
    }
    ok = ok && r.ok() && identical && hitsOk;
    if (threads == 1) {
      cachedSerialWall = r.wallSeconds;
      cachedGoldenSeconds = r.goldenSeconds;
    }
    const auto gstats = analysis::goldenTraceCache().stats();
    t.addRow({"cached", std::to_string(threads), util::Table::fixed(r.wallSeconds, 3),
              util::Table::fixed(r.simSeconds, 3), util::Table::fixed(r.goldenSeconds, 3),
              std::to_string(r.goldenCacheHits) + "/" + std::to_string(gstats.hits + gstats.misses),
              std::to_string(r.prefixCacheHits), std::to_string(r.mutantCacheHits),
              identical ? "yes" : "NO — BUG"});
  }
  std::fputs(t.render().c_str(), stdout);

  const double speedup = cachedSerialWall > 0.0 ? cold.wallSeconds / cachedSerialWall : 0.0;
  const double cycleRatio =
      cold.cyclesSimulated > 0
          ? static_cast<double>(reference.cyclesSimulated) /
                static_cast<double>(cold.cyclesSimulated)
          : 0.0;
  std::printf(
      "\nDivergence-driven simulation: %llu reference mutant-cycles -> %llu fast\n"
      "(%llu skipped, %.2fx fewer simulated; DSP Razor mutants stay live until the\n"
      "correction verdict resolves, so this razor-only sweep skips mostly prefixes).\n",
      static_cast<unsigned long long>(reference.cyclesSimulated),
      static_cast<unsigned long long>(cold.cyclesSimulated),
      static_cast<unsigned long long>(cold.cyclesSkipped), cycleRatio);
  std::printf(
      "\nCache effect (serial, same thread count): %.3fs -> %.3fs wall (%.2fx);\n"
      "golden-trace component: %.3fs -> %.3fs.\n"
      "Expected shape: the cached sweep elaborates once per (corner, threshold)\n"
      "pair and records one golden trace per distinct augmented design, so the\n"
      "golden/prefix components collapse while the report stays bit-identical;\n"
      "total wall shrinks by the shared fraction (per-mutant simulation is\n"
      "per-point work the golden cache deliberately does not touch). Adding\n"
      "threads shrinks wall time on top (items are independent; caches serve\n"
      "concurrent tasks via per-key build-once).\n",
      cold.wallSeconds, cachedSerialWall, speedup, cold.goldenSeconds, cachedGoldenSeconds);

  bench::writeBenchJson(
      "campaign_sweep",
      {{"points", static_cast<double>(points)},
       {"wall_seconds_cold", cold.wallSeconds},
       {"wall_seconds_cached_serial", cachedSerialWall},
       {"golden_seconds_cold", cold.goldenSeconds},
       {"golden_seconds_cached", cachedGoldenSeconds},
       {"cycles_simulated_reference", static_cast<double>(reference.cyclesSimulated)},
       {"cycles_simulated_fast", static_cast<double>(cold.cyclesSimulated)},
       {"cycles_skipped_fast", static_cast<double>(cold.cyclesSkipped)},
       {"cycle_reduction_factor", cycleRatio},
       {"self_check_ok", ok ? 1.0 : 0.0}});

  if (!ok) {
    std::fprintf(stderr, "\nFAIL: sweep reports diverged (cache or thread-count dependent)\n");
    return 1;
  }
  if (speedup <= 1.0) {
    std::printf("\nnote: no wall-time reduction measured on this host/scale "
                "(tiny workloads can hide the saving); reports were identical.\n");
  }
  std::printf("\nself-check: OK\n");
  return 0;
}
