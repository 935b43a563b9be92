#include "campaign/shard.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "abstraction/tlm_model.h"
#include "analysis/mutation_analysis.h"
#include "campaign/serialize.h"
#include "campaign/sweep.h"
#include "util/fnv.h"
#include "util/log.h"

namespace xlv::campaign {

std::uint64_t campaignSpecFnv(const CampaignSpec& spec) {
  return util::fnv1a64(encodeCampaignSpec(spec));
}

FlowMutantSet probeFlowMutants(const ips::CaseStudy& cs, const core::FlowOptions& opts) {
  // The specs stageInjection would generate, without injecting or
  // simulating anything: elaborate + insertion + set generation + slice.
  core::FlowReport report;
  core::stageElaborate(cs, opts, report);
  core::stageInsertion(cs, opts, report);
  std::vector<mutation::MutantSpec> specs =
      opts.sensorKind == insertion::SensorKind::Razor
          ? analysis::razorMutantSet(report.sensors)
          : analysis::counterMutantSet(report.sensors,
                                       static_cast<double>(cs.periodPs), report.hfRatio);
  return FlowMutantSet{core::sliceMutantSet(specs, opts.mutantSet), report.hfRatio};
}

namespace {

/// Co-simulations a unit over [begin, end) of `set` runs: the analysis
/// simulates one representative per mutant class in its range
/// (abstraction::mutantClassSpec). At least 1.
std::uint64_t classWeight(const FlowMutantSet& set, std::size_t begin, std::size_t end) {
  std::set<mutation::MutantSpec> classes;
  for (std::size_t i = begin; i < end; ++i) {
    classes.insert(abstraction::mutantClassSpec(set.specs[i], set.hfRatio));
  }
  return std::max<std::uint64_t>(classes.size(), 1);
}

}  // namespace

DispatchUnitPlan planDispatchUnits(const CampaignSpec& spec, std::size_t maxFragmentMutants) {
  // Units in global task-id order (fragments of one item in range order).
  // A fragmenting plan weighs each unit by its co-simulations so schedulers
  // balance simulation work, not just item counts; otherwise nothing is
  // probed and every unit weighs 1.
  DispatchUnitPlan plan;
  plan.specFnv = campaignSpecFnv(spec);
  for (std::size_t i = 0; i < spec.items.size(); ++i) {
    if (maxFragmentMutants == 0) {
      plan.units.push_back(ShardUnit{i, 0, 0});
      plan.weights.push_back(1);
      continue;
    }
    const FlowMutantSet set = probeFlowMutants(spec.items[i].caseStudy, spec.items[i].options);
    const std::size_t count = set.specs.size();
    if (count <= maxFragmentMutants) {
      plan.units.push_back(ShardUnit{i, 0, 0});
      plan.weights.push_back(classWeight(set, 0, count));
      continue;
    }
    for (std::size_t begin = 0; begin < count; begin += maxFragmentMutants) {
      const std::size_t end = std::min(count, begin + maxFragmentMutants);
      plan.units.push_back(ShardUnit{i, begin, end});
      plan.weights.push_back(classWeight(set, begin, end));
    }
  }
  return plan;
}

SubmitFrame unitFrame(const CampaignSpec& spec, std::uint64_t specFnv, const ShardUnit& unit,
                      std::size_t taskIndex, std::size_t taskCount) {
  SubmitFrame frame;
  frame.specFnv = specFnv;
  frame.taskIndex = taskIndex;
  frame.taskCount = taskCount;
  frame.unit = unit;
  frame.spec.name = spec.name;
  frame.spec.executor = spec.executor;
  frame.spec.items.push_back(spec.items.at(unit.taskId));
  return frame;
}

ShardOutput runUnitFrame(const SubmitFrame& frame) {
  if (frame.spec.items.size() != 1) {
    throw std::invalid_argument("unit frame carries " +
                                std::to_string(frame.spec.items.size()) +
                                " items, expected 1");
  }
  CampaignSpec sub = frame.spec;
  sub.name += "/shard" + std::to_string(frame.taskIndex);
  if (!frame.unit.wholeItem()) {
    sub.items[0].options.mutantBegin = frame.unit.mutantBegin;
    sub.items[0].options.mutantEnd = frame.unit.mutantEnd;
  }

  ShardOutput out;
  out.specFnv = frame.specFnv;
  out.shardIndex = static_cast<int>(frame.taskIndex);
  out.shardCount = static_cast<int>(frame.taskCount);
  out.units = {frame.unit};
  out.result = runCampaign(sub);
  // The task id must be the GLOBAL id the merge keys on, not the one-item
  // campaign's 0.
  out.result.items[0].taskId = frame.unit.taskId;
  return out;
}

namespace {

/// Stitch one item's fragments (sorted by range) back into a single item
/// result, validating the ranges tile the mutant set from 0 and — when the
/// item's analysis ran cleanly — that the stitched results cover the full
/// injected set (fragments always inject every mutant, so the report's
/// mutantSpecs are the ground-truth count; a stale planner count that
/// undershoots must fail the merge, not silently drop mutants).
CampaignItemResult stitchFragments(std::size_t taskId, bool analysisRan,
                                   std::vector<const ShardOutput*> owners,
                                   std::vector<const CampaignItemResult*> parts,
                                   std::vector<const ShardUnit*> units) {
  std::vector<std::size_t> order(units.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return units[a]->mutantBegin < units[b]->mutantBegin;
  });

  CampaignItemResult merged = *parts[order[0]];
  merged.taskId = taskId;
  merged.error.clear();
  merged.report.analysis.results.clear();
  merged.report.analysis.simSeconds = 0.0;
  merged.report.analysis.wallSeconds = 0.0;
  merged.report.analysis.goldenSeconds = 0.0;
  merged.report.analysis.goldenFromCache = true;
  merged.report.analysis.goldenFromDisk = true;
  static_cast<analysis::WorkLedger&>(merged.report.analysis) = {};
  merged.report.analysis.threadsUsed = 1;
  merged.taskSeconds = 0.0;
  merged.goldenSeconds = 0.0;
  merged.goldenFromCache = true;
  merged.prefixShared = false;

  std::size_t expectBegin = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const ShardUnit& unit = *units[order[k]];
    const CampaignItemResult& part = *parts[order[k]];
    if (unit.wholeItem()) {
      throw std::invalid_argument("merge: item " + std::to_string(taskId) +
                                  " is covered both whole and as fragments");
    }
    if (unit.mutantBegin != expectBegin) {
      throw std::invalid_argument(
          "merge: item " + std::to_string(taskId) + " fragment gap/overlap at mutant " +
          std::to_string(expectBegin) + " (next fragment starts at " +
          std::to_string(unit.mutantBegin) + ", shard " +
          std::to_string(owners[order[k]]->shardIndex) + ")");
    }
    const std::size_t want = unit.mutantEnd - unit.mutantBegin;
    const std::size_t got = part.report.analysis.results.size();
    // A clean non-final fragment must be full; the final one may be shorter
    // when the planner's count overshot the actual mutant set. Errored
    // fragments legitimately carry fewer (usually zero) results.
    if (part.error.empty() && k + 1 < order.size() && got != want) {
      throw std::invalid_argument("merge: item " + std::to_string(taskId) + " fragment [" +
                                  std::to_string(unit.mutantBegin) + ", " +
                                  std::to_string(unit.mutantEnd) + ") carries " +
                                  std::to_string(got) + " results, expected " +
                                  std::to_string(want));
    }
    if (merged.error.empty() && !part.error.empty()) merged.error = part.error;

    // Work (simSeconds, goldenSeconds) sums across fragments; elapsed time
    // (wallSeconds, taskSeconds) takes the max — fragments of one item run
    // concurrently on separate processes, mirroring the campaign-level
    // ledger rule in mergeShards.
    const auto& a = part.report.analysis;
    auto& out = merged.report.analysis;
    out.results.insert(out.results.end(), a.results.begin(), a.results.end());
    out.simSeconds += a.simSeconds;
    out.wallSeconds = std::max(out.wallSeconds, a.wallSeconds);
    out.goldenSeconds += a.goldenSeconds;
    out.goldenFromCache = out.goldenFromCache && a.goldenFromCache;
    out.goldenFromDisk = out.goldenFromDisk && a.goldenFromDisk;
    out += a;
    out.threadsUsed = std::max(out.threadsUsed, a.threadsUsed);

    merged.taskSeconds = std::max(merged.taskSeconds, part.taskSeconds);
    merged.goldenSeconds += part.goldenSeconds;
    merged.goldenFromCache = merged.goldenFromCache && part.goldenFromCache;
    merged.prefixShared = merged.prefixShared || part.prefixShared;
    expectBegin = unit.mutantEnd;
  }
  const std::size_t stitched = merged.report.analysis.results.size();
  const std::size_t expected = merged.report.mutantSpecs.size();
  if (analysisRan && merged.error.empty() && stitched != expected) {
    throw std::invalid_argument(
        "merge: item " + std::to_string(taskId) + " stitched " + std::to_string(stitched) +
        " mutant results but the injected set has " + std::to_string(expected) +
        " mutants (stale fragment plan?)");
  }
  return merged;
}

}  // namespace

CampaignResult mergeShards(const CampaignSpec& spec, const std::vector<ShardOutput>& outputs) {
  const std::uint64_t fnv = campaignSpecFnv(spec);
  if (outputs.empty()) {
    throw std::invalid_argument("merge: no shard outputs");
  }
  const int shardCount = outputs.front().shardCount;
  // Re-queued work may deliver a shard twice (the dispatcher's crash-recovery
  // retry can race its dead predecessor's already-written output), so
  // duplicates of one shard index are tolerated — they must re-run the same
  // units — and coverage means every index seen AT LEAST once.
  std::vector<const ShardOutput*> firstByIndex(static_cast<std::size_t>(
                                                  std::max(shardCount, 0)),
                                              nullptr);
  for (const auto& o : outputs) {
    if (o.specFnv != fnv) {
      throw std::invalid_argument("merge: shard " + std::to_string(o.shardIndex) +
                                  " was run against a different spec (fingerprint mismatch)");
    }
    if (o.shardCount != shardCount || o.shardIndex < 0 || o.shardIndex >= shardCount) {
      throw std::invalid_argument("merge: inconsistent shard coordinates (index " +
                                  std::to_string(o.shardIndex) + " of " +
                                  std::to_string(o.shardCount) + ")");
    }
    if (o.units.size() != o.result.items.size()) {
      throw std::invalid_argument("merge: shard " + std::to_string(o.shardIndex) +
                                  " unit/result count mismatch");
    }
    const ShardOutput*& first = firstByIndex[static_cast<std::size_t>(o.shardIndex)];
    if (first == nullptr) {
      first = &o;
    } else if (first->units != o.units) {
      throw std::invalid_argument("merge: duplicate outputs for shard " +
                                  std::to_string(o.shardIndex) +
                                  " cover different units");
    }
  }
  for (int s = 0; s < shardCount; ++s) {
    if (firstByIndex[static_cast<std::size_t>(s)] == nullptr) {
      throw std::invalid_argument("merge: plan has " + std::to_string(shardCount) +
                                  " shards but shard " + std::to_string(s) +
                                  " delivered no output");
    }
  }

  const std::size_t n = spec.items.size();
  struct Part {
    const ShardOutput* owner;
    const ShardUnit* unit;
    const CampaignItemResult* item;
  };
  std::vector<std::vector<Part>> byTask(n);
  for (const auto& o : outputs) {
    for (std::size_t k = 0; k < o.units.size(); ++k) {
      const ShardUnit& unit = o.units[k];
      if (unit.taskId >= n) {
        throw std::invalid_argument("merge: shard " + std::to_string(o.shardIndex) +
                                    " references task " + std::to_string(unit.taskId) +
                                    " outside the spec's " + std::to_string(n) + " items");
      }
      // Deduplicate by fragment id: a retried unit's copies must agree on
      // everything sameResults compares; keep the lowest-shard-index copy so
      // the merged result is independent of output (completion) order.
      Part part{&o, &unit, &o.result.items[k]};
      bool duplicate = false;
      for (Part& have : byTask[unit.taskId]) {
        if (*have.unit != unit) continue;
        if (!sameItemResults(*have.item, *part.item)) {
          throw std::invalid_argument(
              "merge: duplicate copies of item " + std::to_string(unit.taskId) +
              " fragment [" + std::to_string(unit.mutantBegin) + ", " +
              std::to_string(unit.mutantEnd) + ") disagree (shards " +
              std::to_string(have.owner->shardIndex) + " and " +
              std::to_string(o.shardIndex) + ")");
        }
        if (o.shardIndex < have.owner->shardIndex) have = part;
        duplicate = true;
        break;
      }
      if (!duplicate) byTask[unit.taskId].push_back(part);
    }
  }

  CampaignResult merged;
  merged.name = spec.name;
  merged.items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& parts = byTask[i];
    if (parts.empty()) {
      throw std::invalid_argument("merge: item " + std::to_string(i) +
                                  " is covered by no shard");
    }
    if (parts.size() == 1 && parts[0].unit->wholeItem()) {
      merged.items.push_back(*parts[0].item);
      merged.items.back().taskId = i;
    } else {
      std::vector<const ShardOutput*> owners;
      std::vector<const CampaignItemResult*> items;
      std::vector<const ShardUnit*> units;
      for (const Part& p : parts) {
        owners.push_back(p.owner);
        items.push_back(p.item);
        units.push_back(p.unit);
      }
      merged.items.push_back(stitchFragments(i, spec.items[i].options.runMutationAnalysis,
                                             std::move(owners), std::move(items),
                                             std::move(units)));
    }
  }

  // Ledger aggregation: work and cache hits sum across shards (hits stay
  // attributed to the process that scored them); wall time is the elapsed
  // maximum, since shards run concurrently on separate processes/hosts.
  for (const auto& o : outputs) {
    merged.simSeconds += o.result.simSeconds;
    merged.goldenSeconds += o.result.goldenSeconds;
    merged.goldenCacheHits += o.result.goldenCacheHits;
    merged.prefixCacheHits += o.result.prefixCacheHits;
    merged.diskHits += o.result.diskHits;
    merged.diskStores += o.result.diskStores;
    merged.diskEvictions += o.result.diskEvictions;
    merged += o.result;
    merged.wallSeconds = std::max(merged.wallSeconds, o.result.wallSeconds);
    merged.threadsUsed = std::max(merged.threadsUsed, o.result.threadsUsed);
  }
  XLV_INFO("shard") << "merged " << outputs.size() << " shards into '" << merged.name
                    << "': " << merged.items.size() << " items, "
                    << (merged.ok() ? "ok" : "with errors");
  return merged;
}

// --- built-in specs ----------------------------------------------------------

std::vector<std::string> builtinCampaignSpecNames() { return {"smoke", "single", "failing"}; }

CampaignSpec builtinCampaignSpec(const std::string& preset) {
  if (preset == "smoke") {
    // The PR 2 acceptance sweep: 2 IPs x 2 sensor kinds x 2 STA corners,
    // quick cycle budget — the workload the cross-shard bit-identity
    // acceptance criterion is stated over.
    SweepSpec sweep;
    sweep.name = "shard-smoke";
    sweep.cases = {ips::buildFilterCase(), ips::buildDspCase()};
    sweep.base.testbenchCycles = 80;
    sweep.base.measureRtl = false;
    sweep.base.measureTlm = false;
    sweep.base.measureOptimized = false;
    sweep.axes.sensorKinds = {insertion::SensorKind::Razor, insertion::SensorKind::Counter};
    sweep.axes.corners = {sta::Corner::typical(), sta::Corner::slow()};
    return expandSweep(sweep);
  }
  if (preset == "single") {
    // One Counter item with its full DeltaDelay triple per sensor — enough
    // mutants to demonstrate mutant-range fragmentation of one item. The
    // caches are on so a --cache-dir run persists its golden trace and
    // per-mutant results for warm re-runs.
    CampaignSpec spec;
    spec.name = "shard-single";
    CampaignItem item;
    item.caseStudy = ips::buildFilterCase();
    item.options.sensorKind = insertion::SensorKind::Counter;
    item.options.testbenchCycles = 120;
    item.options.measureRtl = false;
    item.options.measureTlm = false;
    item.options.measureOptimized = false;
    item.options.useGoldenCache = true;
    item.options.useMutantCache = true;
    spec.items.push_back(std::move(item));
    return spec;
  }
  if (preset == "failing") {
    // Deterministically broken mid-campaign items (Counter with an invalid
    // hfRatio override — rejected by stageElaborate) surrounded by healthy
    // ones: the regression workload for CampaignResult::firstError and the
    // CLI's exit-code-3 contract. The breakage lives in the OPTIONS, so it
    // survives the wire round trip (a broken module would be healed by the
    // by-name case-study rebuild).
    CampaignSpec spec;
    spec.name = "shard-failing";
    auto makeItem = [](insertion::SensorKind kind, const std::string& label) {
      CampaignItem item;
      item.caseStudy = ips::buildFilterCase();
      item.options.sensorKind = kind;
      item.options.testbenchCycles = 40;
      item.options.measureRtl = false;
      item.options.measureOptimized = false;
      item.label = label;
      return item;
    };
    spec.items.push_back(makeItem(insertion::SensorKind::Razor, "ok-razor"));
    CampaignItem bad1 = makeItem(insertion::SensorKind::Counter, "bad-hf0");
    bad1.options.hfRatio = 0;
    spec.items.push_back(std::move(bad1));
    spec.items.push_back(makeItem(insertion::SensorKind::Counter, "ok-counter"));
    CampaignItem bad3 = makeItem(insertion::SensorKind::Counter, "bad-hf-negative");
    bad3.options.hfRatio = -4;
    spec.items.push_back(std::move(bad3));
    return spec;
  }
  throw std::invalid_argument("unknown campaign preset '" + preset +
                              "' (known: smoke, single, failing)");
}

}  // namespace xlv::campaign
