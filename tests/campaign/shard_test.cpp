// Campaign units: the cross-process bit-identity conformance suite.
//
// The single-process campaign is the truth; a run split into dispatch units
// — whole items or mutant-range fragments, each unit executed with cold
// process caches exactly like a worker process of the pool — must merge
// back into a CampaignResult that CampaignResult::sameResults cannot tell
// apart from that truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "abstraction/tlm_model.h"
#include "campaign/serialize.h"
#include "campaign/shard.h"
#include "core/flow.h"
#include "unit_runner.h"

namespace xlv::campaign {
namespace {

void clearProcessCaches() { core::clearProcessCaches(); }

/// Distinct mutant classes in [begin, end) of `set`, at least 1: the
/// co-simulations a unit over that range runs.
std::uint64_t classesIn(const FlowMutantSet& set, std::size_t begin, std::size_t end) {
  std::set<mutation::MutantSpec> classes;
  for (std::size_t i = begin; i < end; ++i) {
    classes.insert(abstraction::mutantClassSpec(set.specs[i], set.hfRatio));
  }
  return std::max<std::size_t>(classes.size(), 1);
}

/// Every task id of the spec is covered exactly once, in order: by one
/// whole-item unit, or by fragments that tile [0, count) of its mutant set
/// with at most maxFragmentMutants each. A fragmenting plan weighs every
/// unit by the mutant classes in its range; otherwise every weight is 1.
void expectUnitsTileTheSpec(const CampaignSpec& spec, std::size_t maxFragmentMutants,
                            const DispatchUnitPlan& plan) {
  ASSERT_EQ(plan.units.size(), plan.weights.size());
  EXPECT_EQ(campaignSpecFnv(spec), plan.specFnv);
  for (const std::uint64_t w : plan.weights) EXPECT_GE(w, 1u);
  std::size_t u = 0;
  for (std::size_t task = 0; task < spec.items.size(); ++task) {
    ASSERT_LT(u, plan.units.size()) << "task " << task << " is not covered";
    const FlowMutantSet set =
        probeFlowMutants(spec.items[task].caseStudy, spec.items[task].options);
    if (plan.units[u].wholeItem()) {
      EXPECT_EQ(task, plan.units[u].taskId);
      EXPECT_EQ(maxFragmentMutants == 0 ? 1 : classesIn(set, 0, set.specs.size()),
                plan.weights[u])
          << "task " << task;
      ++u;
      continue;
    }
    std::size_t expectBegin = 0;
    while (u < plan.units.size() && plan.units[u].taskId == task) {
      const ShardUnit& unit = plan.units[u];
      EXPECT_FALSE(unit.wholeItem());
      EXPECT_EQ(expectBegin, unit.mutantBegin) << "task " << task;
      EXPECT_LE(unit.mutantEnd - unit.mutantBegin, maxFragmentMutants);
      EXPECT_EQ(classesIn(set, unit.mutantBegin, unit.mutantEnd), plan.weights[u]);
      expectBegin = unit.mutantEnd;
      ++u;
    }
    EXPECT_EQ(set.specs.size(), expectBegin) << "fragments of task " << task << " leave a gap";
  }
  EXPECT_EQ(plan.units.size(), u) << "units past the last task";
}

// --- the acceptance workload: the smoke sweep, whole items and fragments ---

TEST(Shard, MergedSweepIsBitIdenticalToSingleProcessForAnyShardCount) {
  const CampaignSpec spec = builtinCampaignSpec("smoke");
  ASSERT_EQ(8u, spec.items.size()) << "2 IPs x 2 sensor kinds x 2 corners";

  clearProcessCaches();
  const CampaignResult single = runCampaign(spec);
  EXPECT_TRUE(single.ok());

  // Whole items (8 units), then two fragment sizes: 40 splits only the
  // larger items, 16 splits every one.
  std::vector<CampaignResult> merged;
  for (const std::size_t maxFragment : {0, 40, 16}) {
    merged.push_back(runAndMergeUnits(spec, maxFragment));
    EXPECT_TRUE(merged.back().ok()) << "max fragment " << maxFragment;
    EXPECT_TRUE(single.sameResults(merged.back())) << "max fragment " << maxFragment;
    EXPECT_EQ(single.items.size(), merged.back().items.size());
  }
  // Every pairing of unit splits agrees too (sameResults is the single
  // comparator, so this is transitivity made explicit).
  for (std::size_t i = 0; i < merged.size(); ++i) {
    for (std::size_t j = i + 1; j < merged.size(); ++j) {
      EXPECT_TRUE(merged[i].sameResults(merged[j])) << i << " vs " << j;
    }
  }
}

// --- mutant-range fragmentation of one oversized item ------------------------

TEST(Shard, OversizedItemSplitsByMutantRangeAndStitchesBack) {
  const CampaignSpec spec = builtinCampaignSpec("single");
  ASSERT_EQ(1u, spec.items.size());
  const std::size_t mutants =
      probeFlowMutants(spec.items[0].caseStudy, spec.items[0].options).specs.size();
  ASSERT_GE(mutants, 3u) << "Counter sets carry a DeltaDelay triple per sensor";

  clearProcessCaches();
  const CampaignResult single = runCampaign(spec);
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(mutants, single.items[0].report.analysis.results.size());

  const DispatchUnitPlan plan = planDispatchUnits(spec, 2);
  // The one item must actually fragment: every unit is a range, ranges tile
  // [0, mutants) in order.
  std::size_t expectBegin = 0;
  for (const auto& u : plan.units) {
    EXPECT_FALSE(u.wholeItem());
    EXPECT_EQ(0u, u.taskId);
    EXPECT_EQ(expectBegin, u.mutantBegin);
    EXPECT_LE(u.mutantEnd - u.mutantBegin, 2u);
    expectBegin = u.mutantEnd;
  }
  EXPECT_EQ(mutants, expectBegin);
  EXPECT_EQ((mutants + 1) / 2, plan.units.size());

  const CampaignResult merged = runAndMergeUnits(spec, 2);
  EXPECT_TRUE(merged.ok());
  EXPECT_TRUE(single.sameResults(merged));
  // The stitched analysis is the full set with global ids in order.
  ASSERT_EQ(mutants, merged.items[0].report.analysis.results.size());
  EXPECT_EQ(single.items[0].report.analysis.results,
            merged.items[0].report.analysis.results);
}

// --- planner properties ------------------------------------------------------

TEST(Shard, PlannerIsDeterministicContiguousAndComplete) {
  const CampaignSpec spec = builtinCampaignSpec("smoke");
  for (const std::size_t maxFragment : {0, 40, 16}) {
    const DispatchUnitPlan a = planDispatchUnits(spec, maxFragment);
    const DispatchUnitPlan b = planDispatchUnits(spec, maxFragment);
    EXPECT_EQ(a.units, b.units) << "max fragment " << maxFragment;
    EXPECT_EQ(a.weights, b.weights) << "max fragment " << maxFragment;
    expectUnitsTileTheSpec(spec, maxFragment, a);
  }
  // Whole-item planning: one unit per item, in task-id order, weight 1.
  const DispatchUnitPlan whole = planDispatchUnits(spec, 0);
  ASSERT_EQ(spec.items.size(), whole.units.size());
  for (std::size_t i = 0; i < whole.units.size(); ++i) {
    EXPECT_EQ(ShardUnit{i}, whole.units[i]);
    EXPECT_EQ(1u, whole.weights[i]);
  }
}

TEST(Shard, WholeRazorItemWeighsHalfItsMutants) {
  // A Razor layout has hfRatio 0, so an endpoint's MinDelay and MaxDelay
  // mutants are one class: a whole Razor item runs half its mutants.
  const CampaignSpec spec = builtinCampaignSpec("smoke");
  const DispatchUnitPlan plan = planDispatchUnits(spec, 40);
  int checked = 0;
  for (std::size_t u = 0; u < plan.units.size(); ++u) {
    const CampaignItem& item = spec.items[plan.units[u].taskId];
    if (!plan.units[u].wholeItem() ||
        item.options.sensorKind != insertion::SensorKind::Razor) {
      continue;
    }
    const std::size_t mutants = probeFlowMutants(item.caseStudy, item.options).specs.size();
    EXPECT_EQ(mutants, 2 * plan.weights[u]) << "task " << plan.units[u].taskId;
    ++checked;
  }
  EXPECT_GT(checked, 0) << "no whole Razor item in smoke's plan at 40";
}

// --- failure propagation across the unit boundary ----------------------------

TEST(Shard, MergeSurfacesTheLowestTaskIdError) {
  // Items 1 and 3 carry a broken case study (no module): each fails inside
  // its unit, the campaign captures the error per item, and the merged
  // result reports the LOWEST task id first — the same failure the
  // single-process run surfaces.
  CampaignSpec spec;
  spec.name = "broken-items";
  for (int i = 0; i < 5; ++i) {
    CampaignItem item;
    item.caseStudy = ips::buildFilterCase();
    item.options.testbenchCycles = 40;
    item.options.measureRtl = false;
    item.options.measureOptimized = false;
    item.options.runMutationAnalysis = false;
    item.label = "item" + std::to_string(i);
    if (i == 1 || i == 3) item.caseStudy.module = nullptr;
    spec.items.push_back(std::move(item));
  }

  clearProcessCaches();
  const CampaignResult single = runCampaign(spec);
  EXPECT_FALSE(single.ok());
  ASSERT_NE(nullptr, single.firstError());
  EXPECT_EQ(1u, single.firstError()->taskId);

  // Units run on the in-memory spec (not the wire round trip — the codec
  // rebuilds case studies by name, which would heal the broken module).
  const CampaignResult merged = runAndMergeUnits(spec, 0, SpecTransport::InMemory);
  EXPECT_FALSE(merged.ok());
  ASSERT_NE(nullptr, merged.firstError());
  EXPECT_EQ(1u, merged.firstError()->taskId);
  EXPECT_NE(nullptr, std::strstr(merged.firstError()->error.c_str(), "has no module"));
  EXPECT_TRUE(single.sameResults(merged)) << "errors are part of the compared content";
}

// --- merge validation --------------------------------------------------------

TEST(Shard, MergeRejectsIncompleteMismatchedOrDuplicateOutputs) {
  const CampaignSpec spec = builtinCampaignSpec("single");
  const std::vector<ShardOutput> outputs = runDispatchUnits(spec, 16);
  ASSERT_EQ(3u, outputs.size()) << "45 mutants in fragments of 16";

  // Complete set merges.
  EXPECT_NO_THROW(mergeShards(spec, outputs));

  // A missing output is incomplete.
  EXPECT_THROW(mergeShards(spec, {outputs[0], outputs[1]}), std::invalid_argument);

  // The same output twice still leaves the others uncovered: incomplete.
  // (The duplicate itself is tolerated — see
  // MergeDeduplicatesDoubleSubmittedShardsByFragmentId.)
  EXPECT_THROW(mergeShards(spec, {outputs[0], outputs[0]}), std::invalid_argument);

  // Outputs from a different spec are rejected by fingerprint.
  CampaignSpec other = spec;
  other.name = "renamed";
  EXPECT_THROW(mergeShards(other, outputs), std::invalid_argument);
}

TEST(Shard, MergeDeduplicatesDoubleSubmittedShardsByFragmentId) {
  const CampaignSpec spec = builtinCampaignSpec("single");
  // Fragmented units so every output carries a real mutant range.
  const std::vector<ShardOutput> outputs = runDispatchUnits(spec, 16);
  ASSERT_EQ(3u, outputs.size());
  for (const ShardOutput& o : outputs) ASSERT_FALSE(o.units.front().wholeItem());

  const CampaignResult once = mergeShards(spec, outputs);

  // A crashed worker's retry can race its dead predecessor's
  // already-delivered result, so the pool may hand the merge the same unit
  // twice. The merge dedups by fragment id and stays bit-identical...
  const CampaignResult twice =
      mergeShards(spec, {outputs[0], outputs[1], outputs[2], outputs[0]});
  EXPECT_TRUE(once.sameResults(twice));
  EXPECT_EQ(once.items.size(), twice.items.size());

  // ...independent of delivery order (results stream back in completion
  // order, which work stealing does not fix)...
  const CampaignResult shuffled =
      mergeShards(spec, {outputs[2], outputs[0], outputs[1], outputs[0]});
  EXPECT_TRUE(once.sameResults(shuffled));

  // ...while the duplicated work still lands in the ledgers: that
  // simulation time was truly spent twice.
  EXPECT_GE(twice.simSeconds, once.simSeconds);

  // A duplicate that DISAGREES is spec skew, not a retry: rejected.
  ShardOutput tampered = outputs[0];
  ASSERT_FALSE(tampered.result.items.empty());
  tampered.result.items[0].label += "-skew";
  EXPECT_THROW(mergeShards(spec, {outputs[0], outputs[1], outputs[2], tampered}),
               std::invalid_argument);
}

TEST(Shard, PlanDispatchUnitsUnderpinsPlanShards) {
  // The units the pool schedules for a fragmented one-item spec: ranges of
  // at most 2 mutants that tile the item, weighted by their class count.
  const CampaignSpec spec = builtinCampaignSpec("single");
  const DispatchUnitPlan units = planDispatchUnits(spec, 2);
  ASSERT_GT(units.units.size(), 1u) << "fragmentation requested but not applied";
  expectUnitsTileTheSpec(spec, 2, units);
  EXPECT_EQ(units.units, planDispatchUnits(spec, 2).units);
  // Without fragmentation the item is one whole unit of weight 1.
  const DispatchUnitPlan whole = planDispatchUnits(spec, 0);
  ASSERT_EQ(1u, whole.units.size());
  EXPECT_TRUE(whole.units[0].wholeItem());
  EXPECT_EQ(1u, whole.weights[0]);
}

}  // namespace
}  // namespace xlv::campaign
