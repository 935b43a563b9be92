// Cross-process artifact-store conformance: the acceptance criteria of the
// persistent cache PR, stated as tests.
//
//   * A campaign with a cache dir is sameResults-bit-identical cold vs warm
//     vs warm split into dispatch units (each warm pass runs with cleared
//     in-memory caches, i.e. what a fresh worker process sees).
//   * The mutant-set-variant axis performs ZERO mutant re-simulations when
//     the `full` variant's results are cached (ledger-asserted).
//   * Eviction under an artificially small byte cap — and outright entry
//     corruption — degrade to a rebuild, never to wrong or torn results.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/golden_cache.h"
#include "analysis/mutant_cache.h"
#include "campaign/serialize.h"
#include "campaign/shard.h"
#include "campaign/sweep.h"
#include "core/flow.h"
#include "util/artifact_store.h"
#include "unit_runner.h"

namespace xlv::campaign {
namespace {

namespace fs = std::filesystem;

/// Clear every in-memory cache: what a brand-new worker process starts
/// with. The artifact store (when configured) is the only surviving layer.
void freshProcess() { core::clearProcessCaches(); }

struct StoreFixture : ::testing::Test {
  fs::path dir;

  void SetUp() override {
    static int counter = 0;
    dir = fs::temp_directory_path() /
          ("xlv-conformance-" + std::to_string(::getpid()) + "-" +
           std::to_string(counter++));
    fs::remove_all(dir);
  }

  void TearDown() override {
    util::configureProcessArtifactStore(std::nullopt);
    freshProcess();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  void configureStore(std::uint64_t maxBytes = 0) {
    util::configureProcessArtifactStore(
        util::ArtifactStoreConfig{dir.string(), maxBytes});
  }
};

CampaignSpec quickSmokeSpec() {
  CampaignSpec spec = builtinCampaignSpec("smoke");
  for (auto& item : spec.items) item.options.testbenchCycles = 40;
  return spec;
}

std::size_t totalMutants(const CampaignResult& r) {
  std::size_t n = 0;
  for (const auto& it : r.items) n += it.report.analysis.results.size();
  return n;
}

TEST_F(StoreFixture, ColdWarmAndShardedWarmAreBitIdentical) {
  const CampaignSpec spec = quickSmokeSpec();

  // Reference: no store at all.
  util::configureProcessArtifactStore(std::nullopt);
  freshProcess();
  const CampaignResult reference = runCampaign(spec);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(0, reference.diskStores);

  // Cold pass populates the store.
  configureStore();
  freshProcess();
  const CampaignResult cold = runCampaign(spec);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(reference.sameResults(cold)) << "store writes must not change results";
  EXPECT_GT(cold.diskStores, 0);
  EXPECT_EQ(0, cold.diskHits);

  // Warm pass in a "fresh process": in-memory caches cleared, same dir.
  freshProcess();
  const CampaignResult warm = runCampaign(spec);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(reference.sameResults(warm)) << "warm run must be bit-identical";
  EXPECT_GT(warm.diskHits, 0) << "a warm run must actually load from the store";
  // Every mutant co-simulation was served from the store: analysis-free.
  EXPECT_EQ(static_cast<int>(totalMutants(warm)), warm.mutantCacheHits);
  EXPECT_GT(warm.mutantCacheHits, 0);

  // Warm dispatch units: one fresh "process" per item over the shared
  // store, merged back.
  const CampaignResult mergedWarm = runAndMergeUnits(spec, 0);
  EXPECT_TRUE(reference.sameResults(mergedWarm)) << "unit-split warm must be bit-identical";
  EXPECT_GT(mergedWarm.diskHits, 0);
  EXPECT_EQ(static_cast<int>(totalMutants(mergedWarm)), mergedWarm.mutantCacheHits);
}

TEST_F(StoreFixture, VariantAxisIsAnalysisFreeOnceFullRan) {
  auto variantSweep = [](std::vector<core::MutantSetVariant> variants) {
    SweepSpec sweep;
    sweep.name = "variant-sweep";
    sweep.cases = {ips::buildFilterCase()};
    sweep.base.testbenchCycles = 60;
    sweep.base.measureRtl = false;
    sweep.base.measureOptimized = false;
    sweep.axes.sensorKinds = {insertion::SensorKind::Counter};
    sweep.axes.mutantSets = std::move(variants);
    return sweep;
  };

  // Reference min/max results with every cache off (fully cold semantics).
  util::configureProcessArtifactStore(std::nullopt);
  freshProcess();
  SweepSpec coldSpec = variantSweep(
      {core::MutantSetVariant::MinDelay, core::MutantSetVariant::MaxDelay});
  coldSpec.sharePrefixes = false;
  coldSpec.shareGoldenTraces = false;
  coldSpec.shareMutantResults = false;
  const CampaignResult coldMinMax = runSweep(coldSpec);
  ASSERT_TRUE(coldMinMax.ok());
  EXPECT_EQ(0, coldMinMax.mutantCacheHits);

  // Run `full` once against the store.
  configureStore();
  freshProcess();
  const CampaignResult full = runSweep(variantSweep({core::MutantSetVariant::Full}));
  ASSERT_TRUE(full.ok());
  ASSERT_GT(totalMutants(full), 0u);

  // A later process sweeps min+max: every mutant is a slice of `full`'s
  // set, so the whole variant axis must be analysis-free (zero fresh
  // co-simulations) and still bit-identical to the cold reference.
  freshProcess();
  const CampaignResult minMax =
      runSweep(variantSweep({core::MutantSetVariant::MinDelay,
                             core::MutantSetVariant::MaxDelay}));
  ASSERT_TRUE(minMax.ok());
  EXPECT_TRUE(coldMinMax.sameResults(minMax));
  EXPECT_EQ(static_cast<int>(totalMutants(minMax)), minMax.mutantCacheHits)
      << "every min/max mutant must reuse full's cached result";
  EXPECT_GT(minMax.mutantCacheHits, 0);
  EXPECT_GT(minMax.diskHits, 0);

  // The id fix-up is what keeps those reports aligned: within each report
  // ids are the slice-local injected ids (0..n-1 in order).
  for (const auto& it : minMax.items) {
    const auto& results = it.report.analysis.results;
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(static_cast<int>(i), results[i].id) << it.label;
    }
  }
}

TEST_F(StoreFixture, RazorMaxVariantIsAnalysisFreeOnceMinRan) {
  // Razor layouts have hfRatio 0: an endpoint's MinDelay and MaxDelay
  // mutants are one class, cached under one key. So once `min` stored its
  // results, a `max` sweep in a later process simulates nothing.
  auto variantSweep = [](core::MutantSetVariant variant) {
    SweepSpec sweep;
    sweep.name = "razor-variant-sweep";
    sweep.cases = {ips::buildFilterCase()};
    sweep.base.testbenchCycles = 60;
    sweep.base.measureRtl = false;
    sweep.base.measureOptimized = false;
    sweep.axes.sensorKinds = {insertion::SensorKind::Razor};
    sweep.axes.mutantSets = {variant};
    return sweep;
  };

  util::configureProcessArtifactStore(std::nullopt);
  freshProcess();
  SweepSpec coldSpec = variantSweep(core::MutantSetVariant::MaxDelay);
  coldSpec.sharePrefixes = false;
  coldSpec.shareGoldenTraces = false;
  coldSpec.shareMutantResults = false;
  const CampaignResult coldMax = runSweep(coldSpec);
  ASSERT_TRUE(coldMax.ok());
  EXPECT_EQ(0, coldMax.mutantCacheHits);
  EXPECT_GT(coldMax.cyclesSimulated, 0u);

  configureStore();
  freshProcess();
  const CampaignResult min = runSweep(variantSweep(core::MutantSetVariant::MinDelay));
  ASSERT_TRUE(min.ok());
  ASSERT_GT(totalMutants(min), 0u);

  freshProcess();
  const CampaignResult max = runSweep(variantSweep(core::MutantSetVariant::MaxDelay));
  ASSERT_TRUE(max.ok());
  EXPECT_TRUE(coldMax.sameResults(max));
  EXPECT_EQ(static_cast<int>(totalMutants(max)), max.mutantCacheHits)
      << "every max mutant must reuse its endpoint's min result";
  EXPECT_EQ(0u, max.cyclesSimulated);
  EXPECT_EQ(0u, max.cyclesSkipped);
  EXPECT_GT(max.diskHits, 0);
  for (const auto& it : max.items) {
    for (const auto& r : it.report.analysis.results) {
      EXPECT_EQ(mutation::MutantKind::MaxDelay, r.kind) << it.label;
    }
  }
}

TEST_F(StoreFixture, TinyByteCapEvictsButNeverChangesResults) {
  const CampaignSpec spec = quickSmokeSpec();

  util::configureProcessArtifactStore(std::nullopt);
  freshProcess();
  const CampaignResult reference = runCampaign(spec);

  // A cap far below the working set: constant eviction churn.
  configureStore(/*maxBytes=*/2048);
  freshProcess();
  const CampaignResult cold = runCampaign(spec);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(reference.sameResults(cold));
  EXPECT_GT(cold.diskEvictions, 0) << "the tiny cap must actually evict";

  freshProcess();
  const CampaignResult warm = runCampaign(spec);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(reference.sameResults(warm))
      << "evicted entries must degrade to rebuild, never to wrong results";
  EXPECT_LE(util::processArtifactStore()->diskBytes(), 2048u + 1024u)
      << "the store must stay near its cap (one oversize entry of slack)";
}

TEST_F(StoreFixture, CorruptedEntriesAreDroppedAndRebuilt) {
  const CampaignSpec spec = quickSmokeSpec();

  configureStore();
  freshProcess();
  const CampaignResult cold = runCampaign(spec);
  ASSERT_TRUE(cold.ok());
  ASSERT_GT(cold.diskStores, 0);

  // Flip one byte near the end of EVERY entry (payload region): the
  // fingerprint check must catch each one.
  std::size_t corrupted = 0;
  for (fs::recursive_directory_iterator it(dir), end; it != end; ++it) {
    if (!it->is_regular_file() || it->path().extension() != ".art") continue;
    std::fstream f(it->path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-3, std::ios::end);
    const int c = f.get();
    f.seekp(-3, std::ios::end);
    f.put(static_cast<char>(c ^ 0x5a));
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);

  freshProcess();
  const CampaignResult warm = runCampaign(spec);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(cold.sameResults(warm))
      << "corruption must degrade to rebuild, never to wrong results";
  EXPECT_EQ(0, warm.diskHits) << "no corrupted entry may be served";
  EXPECT_GE(util::processArtifactStore()->stats().corrupt, corrupted);

  // The rebuild re-populated the store: a third pass is warm again.
  freshProcess();
  const CampaignResult rewarm = runCampaign(spec);
  EXPECT_TRUE(cold.sameResults(rewarm));
  EXPECT_GT(rewarm.diskHits, 0);
}

TEST_F(StoreFixture, FlowPrefixArtifactRoundTripsAndRejectsMismatch) {
  const ips::CaseStudy cs = ips::buildFilterCase();
  core::FlowOptions opts;
  opts.testbenchCycles = 40;
  const core::FlowPrefix built = core::buildFlowPrefix(cs, opts);
  const std::string wire = encodeFlowPrefix(built);

  // Decode rebuilds deterministically: same STA content, same sensors.
  const core::FlowPrefix decoded = decodeFlowPrefix(wire, cs, opts);
  EXPECT_EQ(built.report.sta.criticalCount, decoded.report.sta.criticalCount);
  EXPECT_EQ(built.report.sta.thresholdPs, decoded.report.sta.thresholdPs);
  EXPECT_EQ(built.report.sta.minSlackPs, decoded.report.sta.minSlackPs);
  ASSERT_EQ(built.report.sensors.size(), decoded.report.sensors.size());
  for (std::size_t i = 0; i < built.report.sensors.size(); ++i) {
    EXPECT_EQ(built.report.sensors[i].endpointName,
              decoded.report.sensors[i].endpointName);
    EXPECT_EQ(built.report.sensors[i].endpointArrivalPs,
              decoded.report.sensors[i].endpointArrivalPs);
  }
  EXPECT_EQ(built.report.loc.rtlAugmented, decoded.report.loc.rtlAugmented);
  // Byte-stability through the rebuild.
  EXPECT_EQ(wire, encodeFlowPrefix(decoded));

  // An artifact recorded for another (ip, kind) must be rejected, not
  // silently reinterpreted.
  core::FlowOptions counterOpts = opts;
  counterOpts.sensorKind = insertion::SensorKind::Counter;
  EXPECT_THROW(decodeFlowPrefix(wire, cs, counterOpts), util::DecodeError);
  const ips::CaseStudy dsp = ips::buildDspCase();
  EXPECT_THROW(decodeFlowPrefix(wire, dsp, opts), util::DecodeError);
}

}  // namespace
}  // namespace xlv::campaign
