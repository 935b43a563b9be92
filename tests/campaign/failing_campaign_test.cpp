// Regression suite for CampaignResult::firstError and the CLI exit-code-3
// contract: the builtin "failing" spec (deliberately broken mid-campaign
// items whose breakage lives in the OPTIONS, so it survives the wire
// codecs) is pushed through the same library paths `xlv_campaign run` /
// `diff` and the xlv_campaignd worker pool wrap, asserting the
// lowest-task-id error survives serialization, unit splitting and merging
// — and that campaignExitCode maps it to 3, never a vacuous 0.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "analysis/golden_cache.h"
#include "analysis/mutant_cache.h"
#include "campaign/serialize.h"
#include "campaign/shard.h"
#include "core/flow.h"
#include "unit_runner.h"

namespace xlv::campaign {
namespace {

void clearProcessCaches() { core::clearProcessCaches(); }

TEST(FailingCampaign, PresetCarriesItsBreakageThroughTheWire) {
  const CampaignSpec spec = builtinCampaignSpec("failing");
  ASSERT_EQ(4u, spec.items.size());
  EXPECT_EQ("bad-hf0", spec.items[1].label);
  EXPECT_EQ("bad-hf-negative", spec.items[3].label);

  // The breakage is an options field, so — unlike a nulled-out module — the
  // by-name case-study rebuild cannot heal it.
  const CampaignSpec decoded = decodeCampaignSpec(encodeCampaignSpec(spec));
  ASSERT_EQ(4u, decoded.items.size());
  ASSERT_TRUE(decoded.items[1].options.hfRatio.has_value());
  EXPECT_EQ(0, *decoded.items[1].options.hfRatio);
  EXPECT_EQ(campaignSpecFnv(spec), campaignSpecFnv(decoded));
}

TEST(FailingCampaign, RunSurfacesLowestTaskIdErrorAndExitCode3) {
  clearProcessCaches();
  // The same path as `xlv_campaign run`: decode the spec wire form, run,
  // encode the result.
  const CampaignSpec spec =
      decodeCampaignSpec(encodeCampaignSpec(builtinCampaignSpec("failing")));
  const CampaignResult result = runCampaign(spec);

  EXPECT_FALSE(result.ok());
  EXPECT_EQ(3, campaignExitCode(result));
  ASSERT_NE(nullptr, result.firstError());
  EXPECT_EQ(1u, result.firstError()->taskId) << "items 1 and 3 fail; 1 is first";
  EXPECT_EQ("bad-hf0", result.firstError()->label);
  EXPECT_NE(nullptr, std::strstr(result.firstError()->error.c_str(), "hfRatio"));

  // Healthy items completed despite the failures (per-item capture).
  const CampaignItemResult* ok = result.find("ok-razor");
  ASSERT_NE(nullptr, ok);
  EXPECT_TRUE(ok->error.empty());
  EXPECT_GT(ok->report.analysis.total(), 0);

  // The result file a CI `diff` would read back preserves everything the
  // exit-code decision needs.
  const CampaignResult decoded = decodeCampaignResult(encodeCampaignResult(result));
  EXPECT_EQ(3, campaignExitCode(decoded));
  ASSERT_NE(nullptr, decoded.firstError());
  EXPECT_EQ(1u, decoded.firstError()->taskId);
  EXPECT_EQ(result.firstError()->error, decoded.firstError()->error);
  EXPECT_TRUE(result.sameResults(decoded));
}

TEST(FailingCampaign, ShardingAndMergePreserveTheFirstErrorAndExitCode) {
  const CampaignSpec spec =
      decodeCampaignSpec(encodeCampaignSpec(builtinCampaignSpec("failing")));

  clearProcessCaches();
  const CampaignResult single = runCampaign(spec);

  // One dispatch unit per item, through the wire codecs like separate
  // worker processes.
  const std::vector<ShardOutput> outputs = runDispatchUnits(spec, 0);
  for (const ShardOutput& out : outputs) {
    // A unit that ran a broken item reports exit 3 itself (the worker
    // process must fail loudly, not hand a quiet file to the merger).
    if (!out.result.ok()) EXPECT_EQ(3, campaignExitCode(out.result));
  }
  const CampaignResult merged = mergeShards(spec, outputs);

  EXPECT_FALSE(merged.ok());
  EXPECT_EQ(3, campaignExitCode(merged));
  ASSERT_NE(nullptr, merged.firstError());
  EXPECT_EQ(1u, merged.firstError()->taskId)
      << "merge must surface the LOWEST task id error across shards";
  EXPECT_NE(nullptr, std::strstr(merged.firstError()->error.c_str(), "hfRatio"));

  // The `diff` comparator treats errors as content: merged == single.
  EXPECT_TRUE(single.sameResults(merged));
}

TEST(FailingCampaign, InvalidHfRatioFailsIdenticallyOnBothPrefixCachePaths) {
  // flowPrefixKey deliberately excludes hfRatio, so a bad-hf item can share
  // a prefix with a valid one. Whichever item populates the cache first,
  // the bad item must fail with the SAME error (error text is part of
  // sameResults — a cache-order-dependent message would break the
  // sharded-vs-single bit-identity contract).
  auto makeItem = [](int hf, const std::string& label) {
    CampaignItem item;
    item.caseStudy = ips::buildFilterCase();
    item.options.sensorKind = insertion::SensorKind::Counter;
    item.options.hfRatio = hf;
    item.options.testbenchCycles = 40;
    item.options.measureRtl = false;
    item.options.measureOptimized = false;
    item.options.runMutationAnalysis = false;
    item.prefixKey = core::flowPrefixKey(item.caseStudy, item.options);
    item.label = label;
    return item;
  };
  // Same prefix key despite different hfRatio values (that is the point).
  ASSERT_EQ(makeItem(4, "a").prefixKey, makeItem(0, "b").prefixKey);

  auto runOrder = [&](bool badFirst) {
    clearProcessCaches();
    CampaignSpec spec;
    spec.name = badFirst ? "bad-first" : "good-first";
    spec.executor.threads = 1;  // serial: deterministic population order
    if (badFirst) {
      spec.items.push_back(makeItem(0, "bad"));
      spec.items.push_back(makeItem(4, "good"));
    } else {
      spec.items.push_back(makeItem(4, "good"));
      spec.items.push_back(makeItem(0, "bad"));
    }
    return runCampaign(spec);
  };

  const CampaignResult goodFirst = runOrder(false);  // bad item hits the cached prefix
  const CampaignResult badFirst = runOrder(true);    // bad item would build the prefix
  const CampaignItemResult* viaCache = goodFirst.find("bad");
  const CampaignItemResult* direct = badFirst.find("bad");
  ASSERT_NE(nullptr, viaCache);
  ASSERT_NE(nullptr, direct);
  EXPECT_NE(nullptr, std::strstr(viaCache->error.c_str(), "hfRatio")) << viaCache->error;
  EXPECT_EQ(direct->error, viaCache->error)
      << "error text must not depend on which item populated the prefix cache";
  // The good item succeeds in both orders.
  EXPECT_TRUE(goodFirst.find("good")->error.empty());
  EXPECT_TRUE(badFirst.find("good")->error.empty());
}

TEST(FailingCampaign, ExitCodeZeroForCleanCampaigns) {
  CampaignResult ok;
  ok.items.resize(2);
  EXPECT_EQ(0, campaignExitCode(ok));
  EXPECT_EQ(nullptr, ok.firstError());
  ok.items[1].error = "boom";
  ok.items[1].taskId = 1;
  EXPECT_EQ(3, campaignExitCode(ok));
  ASSERT_NE(nullptr, ok.firstError());
  EXPECT_EQ(1u, ok.firstError()->taskId);
}

}  // namespace
}  // namespace xlv::campaign
