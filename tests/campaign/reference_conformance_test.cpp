// Divergence-driven mutant simulation conformance: the fast path
// (checkpoint fast-forward + verdict-saturation early exit,
// analysis/mutation_analysis.h) must be sameResults-bit-identical to the
// XLV_REFERENCE_SIM=1 full-replay path — across thread counts, across
// dispatch units run as separate worker processes, with warm
// artifact/mutant caches, and for stateful (makeDriver) testbenches whose
// drivers are replayed through the skipped prefix. Only the cycle ledgers may differ: the reference path skips
// nothing, the fast path must skip something on these workloads.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/serialize.h"
#include "campaign/shard.h"
#include "core/flow.h"
#include "ips/case_study.h"
#include "tests/reference_mode_guard.h"
#include "util/artifact_store.h"
#include "unit_runner.h"

namespace xlv::campaign {
namespace {

namespace fs = std::filesystem;

void freshProcess() { core::clearProcessCaches(); }

CampaignSpec quickSmokeSpec(int threads = 1) {
  CampaignSpec spec = builtinCampaignSpec("smoke");
  for (auto& item : spec.items) item.options.testbenchCycles = 60;
  spec.executor.threads = threads;
  return spec;
}

CampaignResult runReference(const CampaignSpec& spec) {
  ReferenceModeGuard guard(true);
  freshProcess();
  return runCampaign(spec);
}

CampaignResult runFast(const CampaignSpec& spec) {
  ReferenceModeGuard guard(false);
  freshProcess();
  return runCampaign(spec);
}

TEST(ReferenceConformance, FastPathMatchesReferenceAcrossThreadCounts) {
  const CampaignResult reference = runReference(quickSmokeSpec());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(0u, reference.cyclesSkipped);
  EXPECT_GT(reference.cyclesSimulated, 0u);

  for (int threads : {1, 2, 8}) {
    const CampaignResult fast = runFast(quickSmokeSpec(threads));
    ASSERT_TRUE(fast.ok());
    EXPECT_TRUE(reference.sameResults(fast))
        << "fast path diverged from full replay at threads=" << threads;
    EXPECT_GT(fast.cyclesSkipped, 0u)
        << "fast path skipped nothing — fast-forward/early-exit silently off?";
    EXPECT_LT(fast.cyclesSimulated, reference.cyclesSimulated);
    // Every per-mutant cycle is simulated, skipped or part of a mutant-cache
    // hit's run (the smoke items share results, so a class member is a
    // hit); the fast sum can only exceed the reference total by the
    // once-per-item checkpoint recording runs (charged to cyclesSimulated,
    // never to cyclesSkipped).
    std::uint64_t hitCycles = 0;
    for (const auto& it : fast.items) {
      const auto& a = it.report.analysis;
      hitCycles += static_cast<std::uint64_t>(a.mutantCacheHits) * a.cyclesPerRun;
    }
    EXPECT_GE(fast.cyclesSimulated + fast.cyclesSkipped + hitCycles,
              reference.cyclesSimulated + reference.cyclesSkipped);
  }
}

TEST(ReferenceConformance, CycleLedgerIsThreadCountInvariantWithoutResultSharing) {
  // With the cross-item mutant-result cache ON, which item's task performs
  // a shared build depends on scheduling: the per-mutant charges do not
  // (work_ledger_test.cpp), but whether that item's lazy checkpoint
  // recording fires can. With result sharing off, every item simulates
  // every mutant and the cycle ledger must be exactly reproducible.
  auto spec = [] {
    CampaignSpec s = quickSmokeSpec();
    for (auto& item : s.items) {
      item.options.useGoldenCache = false;
      item.options.useMutantCache = false;
    }
    return s;
  };
  CampaignSpec serialSpec = spec();
  const CampaignResult serial = runFast(serialSpec);
  ASSERT_TRUE(serial.ok());
  EXPECT_GT(serial.cyclesSkipped, 0u);
  for (int threads : {2, 8}) {
    CampaignSpec parallelSpec = spec();
    parallelSpec.executor.threads = threads;
    const CampaignResult parallel = runFast(parallelSpec);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(serial.cyclesSimulated, parallel.cyclesSimulated) << "threads=" << threads;
    EXPECT_EQ(serial.cyclesSkipped, parallel.cyclesSkipped) << "threads=" << threads;
  }
}

TEST(ReferenceConformance, ThreeWayShardedFastPathMatchesReference) {
  const CampaignSpec spec = quickSmokeSpec();
  const CampaignResult reference = runReference(spec);
  ASSERT_TRUE(reference.ok());

  // Each dispatch unit runs like a separate worker process: cold in-memory
  // caches, spec and output pushed through the wire codecs.
  CampaignResult merged;
  {
    ReferenceModeGuard guard(false);
    merged = runAndMergeUnits(spec, 0);
  }
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(reference.sameResults(merged));
  EXPECT_GT(merged.cyclesSkipped, 0u);
  EXPECT_LT(merged.cyclesSimulated, reference.cyclesSimulated);
}

TEST(ReferenceConformance, WarmMutantCacheMatchesReferenceWithZeroSimulation) {
  const fs::path dir = fs::temp_directory_path() /
                       ("xlv-refconf-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const CampaignSpec spec = quickSmokeSpec();
  const CampaignResult reference = runReference(spec);
  ASSERT_TRUE(reference.ok());

  util::configureProcessArtifactStore(util::ArtifactStoreConfig{dir.string(), 0});
  const CampaignResult cold = runFast(spec);
  const CampaignResult warm = runFast(spec);  // fresh memory caches, warm store
  util::configureProcessArtifactStore(std::nullopt);
  freshProcess();
  std::error_code ec;
  fs::remove_all(dir, ec);

  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(reference.sameResults(cold));
  EXPECT_TRUE(reference.sameResults(warm));
  EXPECT_GT(warm.mutantCacheHits, 0);
  // Every mutant came from the store, so no co-simulation ran at all: the
  // ledgers are empty — including the lazy checkpoint recording, which must
  // not fire for a campaign that simulates nothing.
  EXPECT_EQ(0u, warm.cyclesSimulated);
  EXPECT_EQ(0u, warm.cyclesSkipped);
}

TEST(ReferenceConformance, StatefulTestbenchDriverReplayMatchesReference) {
  // The handshake case study drives the DUT from a per-task protocol-FSM
  // driver (Testbench::makeDriver): the fast path must replay the driver
  // through the fast-forwarded prefix so its state matches the restored
  // model. Both sensor kinds, flow level.
  for (insertion::SensorKind kind :
       {insertion::SensorKind::Razor, insertion::SensorKind::Counter}) {
    core::FlowOptions opts;
    opts.sensorKind = kind;
    opts.testbenchCycles = 96;
    opts.measureRtl = false;
    opts.measureOptimized = false;

    core::FlowReport fast, reference;
    {
      ReferenceModeGuard guard(false);
      freshProcess();
      fast = core::runFlow(ips::buildHandshakeCase(), opts);
    }
    {
      ReferenceModeGuard guard(true);
      freshProcess();
      reference = core::runFlow(ips::buildHandshakeCase(), opts);
    }
    EXPECT_TRUE(fast.analysis.sameResults(reference.analysis))
        << "stateful-driver fast path diverged (" << insertion::sensorKindName(kind)
        << ")";
    EXPECT_EQ(0u, reference.analysis.cyclesSkipped);
    // No cycle-saving claim here: on a tiny workload the once-per-campaign
    // checkpoint recording can cost more than the prefix skips save. The
    // property under test is bit-identity with a stateful driver.
  }
}

}  // namespace
}  // namespace xlv::campaign
