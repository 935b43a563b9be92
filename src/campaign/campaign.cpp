#include "campaign/campaign.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "analysis/golden_cache.h"
#include "analysis/mutant_cache.h"
#include "campaign/serialize.h"
#include "util/artifact_store.h"
#include "util/log.h"
#include "util/timer.h"

namespace xlv::campaign {

bool CampaignResult::ok() const noexcept {
  for (const auto& it : items) {
    if (!it.error.empty()) return false;
  }
  return true;
}

int campaignExitCode(const CampaignResult& result) noexcept { return result.ok() ? 0 : 3; }

const CampaignItemResult* CampaignResult::firstError() const noexcept {
  const CampaignItemResult* first = nullptr;
  for (const auto& it : items) {
    if (it.error.empty()) continue;
    if (first == nullptr || it.taskId < first->taskId) first = &it;
  }
  return first;
}

const CampaignItemResult* CampaignResult::find(const std::string& label) const noexcept {
  for (const auto& it : items) {
    if (it.label == label) return &it;
  }
  return nullptr;
}

bool sameItemResults(const CampaignItemResult& x, const CampaignItemResult& y) noexcept {
  const auto& rx = x.report;
  const auto& ry = y.report;
  if (x.label != y.label || x.error != y.error) return false;
  if (rx.ipName != ry.ipName || rx.sensorKind != ry.sensorKind || rx.hfRatio != ry.hfRatio ||
      rx.sensors.size() != ry.sensors.size() ||
      rx.skippedEndpoints != ry.skippedEndpoints ||
      rx.sensorAreaGates != ry.sensorAreaGates ||
      rx.sta.criticalCount != ry.sta.criticalCount ||
      rx.sta.thresholdPs != ry.sta.thresholdPs || rx.loc.rtlClean != ry.loc.rtlClean ||
      rx.loc.rtlAugmented != ry.loc.rtlAugmented || rx.loc.tlm != ry.loc.tlm ||
      rx.loc.tlmInjected != ry.loc.tlmInjected || rx.mutantSpecs != ry.mutantSpecs) {
    return false;
  }
  return rx.analysis.sameResults(ry.analysis);
}

bool CampaignResult::sameResults(const CampaignResult& other) const noexcept {
  if (items.size() != other.items.size()) return false;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!sameItemResults(items[i], other.items[i])) return false;
  }
  return true;
}

namespace {

std::string defaultLabel(const CampaignItem& item) {
  return item.caseStudy.name + "/" + insertion::sensorKindName(item.options.sensorKind);
}

/// The stats of the shared caches whose blocked waits a campaign logs.
struct SharedCacheStats {
  util::OnceCacheStats golden = analysis::goldenTraceCache().stats();
  util::OnceCacheStats mutant = analysis::mutantResultCache().stats();
  util::OnceCacheStats prefix = core::flowPrefixCache().stats();
};

/// "<waits> (<seconds> s)" between two stats of one cache.
std::string waitDelta(const util::OnceCacheStats& before, const util::OnceCacheStats& after) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%zu (%.3f s)", after.waits - before.waits,
                after.waitSeconds - before.waitSeconds);
  return buf;
}

}  // namespace

std::vector<std::size_t> runOrder(const CampaignSpec& spec) {
  std::unordered_map<std::string_view, std::size_t> seen;
  std::vector<std::size_t> rank(spec.items.size(), 0);
  for (std::size_t i = 0; i < spec.items.size(); ++i) {
    const std::string& key = spec.items[i].prefixKey;
    if (!key.empty()) rank[i] = seen[key]++;
  }
  std::vector<std::size_t> order(spec.items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return rank[a] < rank[b]; });
  return order;
}

CampaignResult runCampaign(const CampaignSpec& spec) {
  util::Timer wall;
  CampaignResult result;
  result.name = spec.name;
  result.items.resize(spec.items.size());

  // Artifact-store traffic, and the time threads spent blocked on shared
  // builds in flight (logged at the end), are attributed by stats delta
  // around this run (one campaign per process in the sharded flow;
  // concurrent campaigns in one process would share the attribution, which
  // only skews the ledger and the log, never the results).
  util::ArtifactStore* store = util::processArtifactStore();
  const util::ArtifactStoreStats storeBefore =
      store != nullptr ? store->stats() : util::ArtifactStoreStats{};
  const SharedCacheStats cachesBefore;

  Executor executor(spec.executor);
  result.threadsUsed = executor.effectiveThreads(spec.items.size());
  XLV_INFO("campaign") << "'" << spec.name << "': " << spec.items.size() << " items on "
                       << result.threadsUsed << " threads";

  const std::vector<std::size_t> order = runOrder(spec);
  executor.run(order.size(), [&](std::size_t k) {
    const std::size_t i = order[k];
    const CampaignItem& item = spec.items[i];
    CampaignItemResult& out = result.items[i];
    out.taskId = i;
    out.label = item.label.empty() ? defaultLabel(item) : item.label;
    util::Timer t;
    try {
      if (!item.prefixKey.empty()) {
        // Memory first, then the artifact store (the elaborate+insertion
        // spill: a warm process reloads the STA report and re-derives the
        // designs deterministically), then a full build written through.
        // Both layers count as "shared": the STA work was not repeated.
        bool memHit = false, diskHit = false;
        const core::FlowPrefixPtr prefix = util::getOrBuildWithStore<core::FlowPrefix>(
            core::flowPrefixCache(), util::processArtifactStore(), "prefix",
            item.prefixKey,
            [&] { return core::buildFlowPrefix(item.caseStudy, item.options); },
            encodeFlowPrefix,
            [&](std::string_view data) {
              return decodeFlowPrefix(data, item.caseStudy, item.options);
            },
            &memHit, &diskHit);
        out.prefixShared = memHit || diskHit;
        out.report = core::runFlowWithPrefix(*prefix, item.caseStudy, item.options);
      } else {
        out.report = core::runFlow(item.caseStudy, item.options);
      }
      out.goldenSeconds = out.report.analysis.goldenSeconds;
      out.goldenFromCache = out.report.analysis.goldenFromCache;
    } catch (const std::exception& e) {
      out.error = e.what();
    } catch (...) {
      out.error = "unknown error";
    }
    out.taskSeconds = t.seconds();
  });

  for (const auto& it : result.items) {
    // Task time already contains the item's analysis wall time; add the
    // work a parallel inner analysis did beyond its elapsed time so
    // simSeconds stays "total simulation work" (golden recording included
    // exactly once per actual recording).
    result.simSeconds += it.taskSeconds;
    const auto& a = it.report.analysis;
    if (a.simSeconds > a.wallSeconds) result.simSeconds += a.simSeconds - a.wallSeconds;
    result.goldenSeconds += it.goldenSeconds;
    result.goldenCacheHits += it.goldenFromCache ? 1 : 0;
    result.prefixCacheHits += it.prefixShared ? 1 : 0;
    result += a;
  }
  if (store != nullptr) {
    const util::ArtifactStoreStats after = store->stats();
    result.diskHits = static_cast<int>(after.hits - storeBefore.hits);
    result.diskStores = static_cast<int>(after.stores - storeBefore.stores);
    result.diskEvictions = static_cast<int>(after.evictions - storeBefore.evictions);
  }
  const SharedCacheStats cachesAfter;
  XLV_INFO("campaign") << "'" << spec.name << "': blocked on builds in flight: golden "
                       << waitDelta(cachesBefore.golden, cachesAfter.golden) << ", mutant "
                       << waitDelta(cachesBefore.mutant, cachesAfter.mutant) << ", prefix "
                       << waitDelta(cachesBefore.prefix, cachesAfter.prefix);
  result.wallSeconds = wall.seconds();
  return result;
}

CampaignSpec fullMatrixCampaign(const std::vector<ips::CaseStudy>& cases,
                                const core::FlowOptions& base, ExecutorConfig exec) {
  CampaignSpec spec;
  spec.name = "full-matrix";
  spec.executor = exec;
  for (const auto& cs : cases) {
    for (auto kind : {insertion::SensorKind::Razor, insertion::SensorKind::Counter}) {
      CampaignItem item;
      item.caseStudy = cs;
      item.options = base;
      item.options.sensorKind = kind;
      spec.items.push_back(std::move(item));
    }
  }
  return spec;
}

}  // namespace xlv::campaign
