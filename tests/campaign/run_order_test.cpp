// The order a campaign starts its items in (campaign::runOrder): the first
// occurrence of every prefix key, and every item without one, in spec
// order; then every second occurrence, then every third. The order only
// decides which thread builds a shared prefix, golden trace or mutant class
// first, so results stay in spec slots and the work ledger is the same at
// any thread count.
#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/sweep.h"
#include "core/flow.h"
#include "util/artifact_store.h"

namespace xlv::campaign {
namespace {

CampaignSpec specWithPrefixKeys(const std::vector<std::string>& keys) {
  CampaignSpec spec;
  for (const std::string& key : keys) {
    CampaignItem item;
    item.prefixKey = key;
    spec.items.push_back(std::move(item));
  }
  return spec;
}

TEST(RunOrder, FirstOccurrencesOfEveryPrefixKeyGoFirst) {
  const CampaignSpec spec = specWithPrefixKeys({"P", "P", "Q", "", "P", "Q"});
  EXPECT_EQ((std::vector<std::size_t>{0, 2, 3, 1, 5, 4}), runOrder(spec));
}

TEST(RunOrder, ASpecWithoutPrefixKeysRunsInSpecOrder) {
  const CampaignSpec spec = specWithPrefixKeys({"", "", "", "", ""});
  std::vector<std::size_t> identity(spec.items.size());
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  EXPECT_EQ(identity, runOrder(spec));
  EXPECT_TRUE(runOrder(CampaignSpec{}).empty());
}

SweepSpec cachedFilterSweep(int threads) {
  SweepSpec sweep;
  sweep.name = "run-order-sweep";
  sweep.cases = {ips::buildFilterCase()};
  sweep.base.testbenchCycles = 400;
  sweep.base.measureRtl = false;
  sweep.base.measureOptimized = false;
  sweep.axes.thresholdFractions = {0.25, 0.3};
  sweep.axes.mutantSets = {core::MutantSetVariant::Full, core::MutantSetVariant::MinDelay,
                           core::MutantSetVariant::MaxDelay};
  sweep.executor.threads = threads;
  return sweep;
}

TEST(RunOrder, CachedSweepKeepsResultsAndLedgerAtOneAndFourThreads) {
  util::configureProcessArtifactStore(std::nullopt);
  const CampaignSpec spec = expandSweep(cachedFilterSweep(1));
  ASSERT_EQ(6u, spec.items.size());
  // Two prefix groups of three mutant-set points: both Full points first.
  EXPECT_EQ((std::vector<std::size_t>{0, 3, 1, 4, 2, 5}), runOrder(spec));

  std::vector<CampaignResult> runs;
  for (int threads : {1, 4}) {
    core::clearProcessCaches();
    CampaignResult r = runSweep(cachedFilterSweep(threads));
    const std::string what = "threads=" + std::to_string(threads);
    ASSERT_TRUE(r.ok()) << what;
    ASSERT_EQ(spec.items.size(), r.items.size()) << what;
    for (std::size_t i = 0; i < r.items.size(); ++i) {
      EXPECT_EQ(i, r.items[i].taskId) << what << " item " << i;
      EXPECT_EQ(spec.items[i].label, r.items[i].label) << what << " item " << i;
    }
    EXPECT_GT(r.cyclesSimulated, 0u) << what;
    EXPECT_GT(r.mutantCacheHits, 0) << what;
    if (!runs.empty()) {
      const CampaignResult& serial = runs.front();
      EXPECT_TRUE(serial.sameResults(r)) << what;
      EXPECT_EQ(serial.cyclesSimulated, r.cyclesSimulated) << what;
      EXPECT_EQ(serial.cyclesSkipped, r.cyclesSkipped) << what;
      EXPECT_EQ(serial.mutantCacheHits, r.mutantCacheHits) << what;
    }
    runs.push_back(std::move(r));
  }
  core::clearProcessCaches();
}

}  // namespace
}  // namespace xlv::campaign
