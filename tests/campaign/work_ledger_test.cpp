// The work ledger repeats. In a cold sweep whose items share mutant classes
// (the mutant-set-variant axis: Full ⊃ MinDelay, MaxDelay), which item
// simulates a shared class, which finds it in the mutant cache and which
// sets it aside while another thread simulates it is a race between
// worker threads. The ledger must not depend on who won it: a class member
// counts as a cache hit whatever its representative's own status, and so
// does a representative served after being set aside, so every total
// repeats run to run, across thread counts and across batch sizes, and the
// mutants that were not hits are exactly the co-simulations the cache
// built.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/mutant_cache.h"
#include "campaign/sweep.h"
#include "core/flow.h"
#include "util/artifact_store.h"

namespace xlv::campaign {
namespace {

SweepSpec sharedClassSweep(int threads, int batch) {
  SweepSpec sweep;
  sweep.name = "ledger-sweep";
  sweep.cases = {ips::buildFilterCase()};
  sweep.base.testbenchCycles = 60;
  sweep.base.measureRtl = false;
  sweep.base.measureOptimized = false;
  sweep.axes.sensorKinds = {insertion::SensorKind::Razor, insertion::SensorKind::Counter};
  sweep.axes.mutantSets = {core::MutantSetVariant::Full, core::MutantSetVariant::MinDelay,
                           core::MutantSetVariant::MaxDelay};
  sweep.base.batch = batch;
  sweep.executor.threads = threads;
  return sweep;
}

std::size_t totalMutants(const CampaignResult& r) {
  std::size_t n = 0;
  for (const auto& it : r.items) n += it.report.analysis.results.size();
  return n;
}

// Batch 4 keeps the grouped path's speculative group simulation: a member
// another thread is simulating is set aside like a solo representative.
TEST(WorkLedger, ColdSharedClassSweepRepeatsAtOneAndFourThreads) {
  util::configureProcessArtifactStore(std::nullopt);
  std::vector<CampaignResult> runs;
  for (int batch : {1, 4}) {
    for (int threads : {1, 4}) {
      for (int rep = 0; rep < 5; ++rep) {
        const std::string what = "batch=" + std::to_string(batch) +
                                 " threads=" + std::to_string(threads) + " run " +
                                 std::to_string(rep);
        core::clearProcessCaches();
        CampaignResult r = runSweep(sharedClassSweep(threads, batch));
        ASSERT_TRUE(r.ok()) << what;
        const std::size_t mutants = totalMutants(r);
        ASSERT_GT(mutants, 0u) << what;
        EXPECT_GT(r.mutantCacheHits, 0) << what;
        // Every mutant that was not a cache hit is one co-simulation the
        // mutant cache built.
        EXPECT_EQ(mutants - static_cast<std::size_t>(r.mutantCacheHits),
                  analysis::mutantResultCache().stats().misses)
            << what;
        if (!runs.empty()) {
          const CampaignResult& first = runs.front();
          EXPECT_TRUE(first.sameResults(r)) << what;
          EXPECT_EQ(first.cyclesSimulated, r.cyclesSimulated) << what;
          EXPECT_EQ(first.cyclesSkipped, r.cyclesSkipped) << what;
          EXPECT_EQ(first.mutantCacheHits, r.mutantCacheHits) << what;
        }
        runs.push_back(std::move(r));
      }
    }
  }
  core::clearProcessCaches();
}

}  // namespace
}  // namespace xlv::campaign
