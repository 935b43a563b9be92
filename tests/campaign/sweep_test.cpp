// Sweep expander: cardinality and labelling of the axis cross-product, and
// bit-identity of a full sweep result across thread counts (the campaign
// merge rule extended to sweep-generated items, with the prefix and
// golden-trace caches in play).
#include <gtest/gtest.h>

#include "analysis/golden_cache.h"
#include "analysis/mutant_cache.h"
#include "campaign/sweep.h"
#include "core/flow.h"

namespace xlv::campaign {
namespace {

using core::MutantSetVariant;
using insertion::SensorKind;

core::FlowOptions quickBase() {
  core::FlowOptions base;
  base.testbenchCycles = 80;
  base.measureRtl = false;
  base.measureOptimized = false;
  return base;
}

TEST(Sweep, CardinalityIsTheAxisProduct) {
  SweepSpec sweep;
  sweep.cases = {ips::buildFilterCase(), ips::buildDspCase()};
  sweep.axes.sensorKinds = {SensorKind::Razor, SensorKind::Counter};
  sweep.axes.corners = {sta::Corner::typical(), sta::Corner::slow(), sta::Corner::fast()};
  sweep.axes.thresholdFractions = {0.2, 0.3};
  sweep.axes.mutantSets = {MutantSetVariant::Full, MutantSetVariant::MaxDelay};
  EXPECT_EQ(2u * 2u * 3u * 2u * 2u, sweepCardinality(sweep));
  EXPECT_EQ(sweepCardinality(sweep), expandSweep(sweep).items.size());

  // Unswept axes contribute factor 1 and the case-study values apply.
  SweepSpec flat;
  flat.cases = {ips::buildFilterCase()};
  EXPECT_EQ(1u, sweepCardinality(flat));
  const CampaignSpec spec = expandSweep(flat);
  ASSERT_EQ(1u, spec.items.size());
  EXPECT_FALSE(spec.items[0].options.staCorner.has_value());
  EXPECT_FALSE(spec.items[0].options.staThresholdFraction.has_value());
}

TEST(Sweep, LabelsAreDeterministicAndUnique) {
  SweepSpec sweep;
  sweep.cases = {ips::buildFilterCase()};
  sweep.axes.sensorKinds = {SensorKind::Razor};
  sweep.axes.corners = {sta::Corner::typical(), sta::Corner::slow()};
  sweep.axes.thresholdFractions = {0.25};
  sweep.axes.mutantSets = {MutantSetVariant::Full, MutantSetVariant::MinDelay};
  const CampaignSpec spec = expandSweep(sweep);
  ASSERT_EQ(4u, spec.items.size());
  EXPECT_EQ("Filter/razor/typical/thr=0.25/mutants=full", spec.items[0].label);
  EXPECT_EQ("Filter/razor/typical/thr=0.25/mutants=min", spec.items[1].label);
  EXPECT_EQ("Filter/razor/ss_0.95v_125c/thr=0.25/mutants=full", spec.items[2].label);
  EXPECT_EQ("Filter/razor/ss_0.95v_125c/thr=0.25/mutants=min", spec.items[3].label);
  for (std::size_t i = 0; i < spec.items.size(); ++i) {
    for (std::size_t j = i + 1; j < spec.items.size(); ++j) {
      EXPECT_NE(spec.items[i].label, spec.items[j].label);
    }
  }
  // Unswept axes emit no label segment.
  SweepSpec flat;
  flat.cases = {ips::buildFilterCase()};
  EXPECT_EQ("Filter/razor", expandSweep(flat).items[0].label);
}

TEST(Sweep, SharesPrefixKeysAcrossMutantSetPoints) {
  SweepSpec sweep;
  sweep.cases = {ips::buildFilterCase()};
  sweep.axes.corners = {sta::Corner::typical(), sta::Corner::slow()};
  sweep.axes.mutantSets = {MutantSetVariant::Full, MutantSetVariant::MaxDelay};
  const CampaignSpec spec = expandSweep(sweep);
  ASSERT_EQ(4u, spec.items.size());
  // Same corner, different mutant set -> same elaborate+insertion prefix.
  EXPECT_EQ(spec.items[0].prefixKey, spec.items[1].prefixKey);
  EXPECT_EQ(spec.items[2].prefixKey, spec.items[3].prefixKey);
  // Different corner -> different prefix.
  EXPECT_NE(spec.items[0].prefixKey, spec.items[2].prefixKey);
  // Sweeps default to shared golden traces, shared per-mutant results and
  // serialized inner analysis under a parallel outer pool.
  for (const auto& item : spec.items) {
    EXPECT_TRUE(item.options.useGoldenCache);
    EXPECT_TRUE(item.options.useMutantCache);
  }
}

TEST(Sweep, MutantSetVariantsSliceThePool) {
  ips::CaseStudy cs = ips::buildDspCase();
  core::FlowOptions opts = quickBase();
  opts.sensorKind = SensorKind::Counter;
  opts.runMutationAnalysis = false;

  core::FlowReport full;
  core::stageElaborate(cs, opts, full);
  core::stageInsertion(cs, opts, full);
  core::stageInjection(cs, opts, full);
  ASSERT_GT(full.mutantSpecs.size(), full.sensors.size());  // the triple per sensor

  opts.mutantSet = core::MutantSetVariant::MaxDelay;
  core::FlowReport sliced;
  core::stageElaborate(cs, opts, sliced);
  core::stageInsertion(cs, opts, sliced);
  core::stageInjection(cs, opts, sliced);
  ASSERT_EQ(sliced.mutantSpecs.size(), sliced.sensors.size());  // one per endpoint
  // Each kept mutant is its endpoint's most severe (largest deltaTicks).
  for (const auto& kept : sliced.mutantSpecs) {
    for (const auto& any : full.mutantSpecs) {
      if (any.targetSignal == kept.targetSignal) EXPECT_GE(kept.deltaTicks, any.deltaTicks);
    }
  }
}

// --- full-sweep bit-identity across thread counts ---------------------------

// CampaignResult::sameResults covers labels, errors and every non-timing
// report field (MutantResult/MutantSpec operator== keep it in lockstep with
// the structs); on failure, narrow down per item via r.find(label).
void expectSameSweepResult(const CampaignResult& a, const CampaignResult& b,
                           const char* what) {
  ASSERT_EQ(a.items.size(), b.items.size()) << what;
  EXPECT_TRUE(a.sameResults(b)) << what;
}

SweepSpec threeAxisSweep(int threads) {
  // The acceptance sweep: >= 3 axes (corner x threshold x mutant set) on
  // one IP.
  SweepSpec sweep;
  sweep.name = "filter-3axis";
  sweep.cases = {ips::buildFilterCase()};
  sweep.base = quickBase();
  sweep.axes.sensorKinds = {SensorKind::Razor};
  // Name-based corner addressing (sta::Corner::byName).
  sweep.axes.corners = {sta::Corner::byName("typical"), sta::Corner::byName("slow")};
  sweep.axes.thresholdFractions = {0.25, 0.3};
  sweep.axes.mutantSets = {MutantSetVariant::Full, MutantSetVariant::MaxDelay};
  sweep.executor = ExecutorConfig{threads};
  return sweep;
}

TEST(Sweep, HfAxisAppliesOnlyToCounterItems) {
  SweepSpec sweep;
  sweep.cases = {ips::buildFilterCase()};
  sweep.axes.sensorKinds = {SensorKind::Razor, SensorKind::Counter};
  sweep.axes.hfRatios = {4, 8};
  // Razor ignores hfRatio: 1 Razor point + 2 Counter points, no duplicate
  // (or misleadingly hf-labelled) Razor items.
  EXPECT_EQ(3u, sweepCardinality(sweep));
  const CampaignSpec spec = expandSweep(sweep);
  ASSERT_EQ(3u, spec.items.size());
  EXPECT_EQ("Filter/razor", spec.items[0].label);
  EXPECT_FALSE(spec.items[0].options.hfRatio.has_value());
  EXPECT_EQ("Filter/counter/hf=4", spec.items[1].label);
  EXPECT_EQ("Filter/counter/hf=8", spec.items[2].label);
}

TEST(Sweep, FullSweepIsThreadCountInvariant) {
  core::clearProcessCaches();

  const CampaignResult serial = runSweep(threeAxisSweep(1));
  ASSERT_EQ(8u, serial.items.size());
  EXPECT_TRUE(serial.ok());
  EXPECT_EQ(1, serial.threadsUsed);

  // On the serial first pass every (corner, threshold) pair elaborates once
  // and its second mutant-set point reuses prefix AND golden trace: 4
  // distinct prefixes, >= 4 shared reuses of each kind. The max-variant
  // points additionally reuse the full variant's per-mutant results.
  EXPECT_EQ(4, serial.prefixCacheHits);
  EXPECT_GE(serial.goldenCacheHits, 4);
  EXPECT_GT(serial.goldenSeconds, 0.0);
  EXPECT_GT(serial.mutantCacheHits, 0);

  for (int threads : {2, 8}) {
    const CampaignResult parallel = runSweep(threeAxisSweep(threads));
    EXPECT_TRUE(parallel.ok());
    expectSameSweepResult(serial, parallel, "filter-3axis");
    // Later passes find everything cached.
    EXPECT_EQ(8, parallel.goldenCacheHits);
    EXPECT_EQ(8, parallel.prefixCacheHits);
  }
}

TEST(Sweep, CacheDisabledSweepMatchesCachedSweep) {
  core::clearProcessCaches();
  const CampaignResult cached = runSweep(threeAxisSweep(2));

  SweepSpec cold = threeAxisSweep(2);
  cold.sharePrefixes = false;
  cold.shareGoldenTraces = false;
  cold.shareMutantResults = false;
  const CampaignResult uncached = runSweep(cold);
  EXPECT_EQ(0, uncached.goldenCacheHits);
  EXPECT_EQ(0, uncached.prefixCacheHits);
  EXPECT_EQ(0, uncached.mutantCacheHits);
  expectSameSweepResult(cached, uncached, "cached-vs-uncached");
}

}  // namespace
}  // namespace xlv::campaign
