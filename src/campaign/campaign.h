// Campaign layer: batched execution of the paper's methodology.
//
// A campaign is a list of independent items — one (IP × sensor-kind ×
// options) combination each — scheduled onto the chunked thread pool
// (campaign/executor.h). Each item runs the composable flow stages of
// core/flow.h end to end; results are merged in task-id order, so a
// CampaignResult is deterministic for a given spec regardless of thread
// count. Item failures are captured per item (the rest of the campaign
// completes), mirroring how a regression farm reports one broken seed
// without discarding the batch.
//
// One pool serves both levels of parallelism: CampaignSpec::executor sizes
// it, items are its outer tasks, and each item's mutation analysis posts its
// mutant batches as a nested job on the same pool (campaign/executor.h), so
// workers with no item left help the items still running. The thread budget
// is CampaignSpec::executor.threads at both levels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/executor.h"
#include "core/flow.h"
#include "ips/case_study.h"

namespace xlv::campaign {

/// One independent unit of campaign work.
struct CampaignItem {
  ips::CaseStudy caseStudy;
  core::FlowOptions options;
  std::string label;  ///< defaults to "<ip>/<sensor-kind>" when empty
  /// When non-empty, the item's elaborate+insertion prefix is fetched from
  /// (or built into) the process-wide core::flowPrefixCache() under this
  /// key and the flow runs via runFlowWithPrefix. Sweep items that agree on
  /// the insertion axes share the key (core::flowPrefixKey), so one task
  /// elaborates and the rest reuse. Empty = self-contained runFlow.
  std::string prefixKey;
};

struct CampaignSpec {
  std::string name = "campaign";
  std::vector<CampaignItem> items;
  ExecutorConfig executor;
};

struct CampaignItemResult {
  std::size_t taskId = 0;
  std::string label;
  core::FlowReport report;
  double taskSeconds = 0.0;    ///< wall time of this item on its worker
  double goldenSeconds = 0.0;  ///< golden-trace time inside this item (~0 on a cache hit)
  bool goldenFromCache = false;  ///< golden trace reused from the process cache
  bool prefixShared = false;     ///< elaborate+insertion reused from the prefix cache
  std::string error;             ///< non-empty when the item threw
};

/// A campaign's items and ledgers. The work ledger (the analysis::WorkLedger
/// base) is the items' analysis ledgers summed, and through stitch/merge
/// the shard fragments' too; the campaign-only ledgers follow.
struct CampaignResult : analysis::WorkLedger {
  std::string name;
  std::vector<CampaignItemResult> items;  ///< always in task-id order
  /// Total simulation work: per-item task time plus, for items whose inner
  /// mutation analysis ran parallel, the analysis work beyond its wall time
  /// — so golden-trace recording is always accounted once per recording,
  /// and cache savings show up as a simSeconds drop against goldenSeconds.
  double simSeconds = 0.0;
  /// Golden-trace time actually spent across items (cache hits contribute
  /// ~0; compare with items.size() × a recording to see the savings).
  double goldenSeconds = 0.0;
  int goldenCacheHits = 0;    ///< items whose golden trace came from the cache
  int prefixCacheHits = 0;    ///< items that reused a shared stage prefix
  // Artifact-store traffic of this run (util/artifact_store.h; all zero
  // when no --cache-dir store is configured). Sums across merged shards.
  int diskHits = 0;       ///< artifacts loaded instead of recomputed
  int diskStores = 0;     ///< artifacts persisted for later runs
  int diskEvictions = 0;  ///< entries dropped by the LRU byte cap
  double wallSeconds = 0.0;   ///< elapsed time of the whole campaign
  int threadsUsed = 1;

  bool ok() const noexcept;
  const CampaignItemResult* find(const std::string& label) const noexcept;
  /// The errored item with the lowest task id, or null when ok(). Mirrors
  /// the executor's lowest-index exception rule at the campaign level: a
  /// merged multi-shard result surfaces the same first failure the
  /// single-process run would.
  const CampaignItemResult* firstError() const noexcept;

  /// Deterministic-content equality: the same item count and
  /// sameItemResults for every item in order. The single comparator behind
  /// the "bit-identical across thread counts / cache modes" checks of the
  /// sweep tests and the bench/CI self-check.
  bool sameResults(const CampaignResult& other) const noexcept;
};

/// Per-item deterministic-content equality: label, error and every
/// non-timing/non-cache report field (sensors, STA binning, mutant specs,
/// per-mutant analysis results). sameResults applies it item by item;
/// mergeShards uses it to check the copies of a retried unit agree.
bool sameItemResults(const CampaignItemResult& x, const CampaignItemResult& y) noexcept;

/// Run every item of the spec; blocks until the campaign completes. Items
/// start in runOrder(spec), at every thread count (threads == 1 runs them
/// inline in that order); results stay in spec order, `items[i].taskId == i`,
/// so the order moves no result, ledger total or encoded byte.
CampaignResult runCampaign(const CampaignSpec& spec);

/// The order runCampaign starts the spec's items in: every item whose
/// prefixKey has not appeared earlier in the spec, and every item without
/// one, in spec order; then every second occurrence of a key, then every
/// third (a stable sort by occurrence rank). In spec order a sweep's threads
/// would start one family's mutant-set variants together and wait for the
/// golden trace they share; first occurrences first, the executor's chunked
/// claims spread the families over the threads, and the later occurrences
/// find their traces and classes built.
std::vector<std::size_t> runOrder(const CampaignSpec& spec);

/// The process exit code a completed campaign maps to: 0 when every item
/// succeeded, 3 when any item errored (the tools/xlv_campaign contract CI
/// pipelines fail on — a campaign that "completed" with zero mutants
/// simulated must not pass vacuously).
int campaignExitCode(const CampaignResult& result) noexcept;

/// The paper's full experiment matrix: every case study × both sensor
/// kinds, with `base` options applied to each item (sensorKind overridden
/// per item).
CampaignSpec fullMatrixCampaign(const std::vector<ips::CaseStudy>& cases,
                                const core::FlowOptions& base, ExecutorConfig exec = {});

}  // namespace xlv::campaign
