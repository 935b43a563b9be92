// Campaign units: split a spec into units, run them anywhere, merge back.
//
// The executor parallelizes a campaign within one process; this layer is
// how a campaign runs in pieces across processes (the xlv_campaignd worker
// pool, campaign/dispatch.h) and is merged back into one CampaignResult
// that is bit-identical (CampaignResult::sameResults) to the single-process
// run. Three pieces:
//
//   * planner  — planDispatchUnits() lists the spec's units in global
//     task-id order. Units are whole items by default; an item whose mutant
//     count exceeds maxFragmentMutants is split into MUTANT-RANGE FRAGMENTS
//     (FlowOptions::mutantBegin/End): every fragment re-runs the cheap flow
//     prefix but analyzes only its mutant slice, with global MutantResult
//     ids, so one oversized item can span processes. unitFrame() builds the
//     frame a worker receives for one unit: the unit and its item.
//   * runner   — runUnitFrame() executes a frame's item as an ordinary
//     in-process campaign (thread pool, caches and merge rule unchanged)
//     and tags the result with its GLOBAL task id.
//   * merger   — mergeShards() reassembles the outputs: whole items land in
//     task-id order, fragments of one item are stitched back by
//     concatenating their analysis subranges, ledgers (simSeconds /
//     goldenSeconds / wallSeconds / cache hits) are aggregated per output,
//     and the first failure surfaced is the lowest-task-id one — exactly
//     the single-process semantics.
//
// Integrity: unit plans, frames and outputs carry the FNV-1a fingerprint
// of the canonical spec encoding (campaign/serialize.h), so an output from
// a different spec — or a different schema version — is rejected instead
// of silently merged.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.h"

namespace xlv::campaign {

struct SubmitFrame;  // campaign/serialize.h

/// One schedulable unit: a whole campaign item, or a mutant-range fragment
/// of one.
struct ShardUnit {
  std::size_t taskId = 0;  ///< index of the item in the full spec
  /// Fragment range [mutantBegin, mutantEnd) of the item's (variant-sliced)
  /// mutant set; 0/0 = the whole item.
  std::size_t mutantBegin = 0;
  std::size_t mutantEnd = 0;

  bool wholeItem() const noexcept { return mutantBegin == 0 && mutantEnd == 0; }
  bool operator==(const ShardUnit&) const = default;
};

/// The mutants an item's analysis stage will schedule, and the hfRatio their
/// classes (abstraction::mutantClassSpec) are formed under.
struct FlowMutantSet {
  std::vector<mutation::MutantSpec> specs;
  int hfRatio = 0;
};

/// Probe an item's mutant set: elaborate + insertion + mutant-set
/// generation/slicing, no simulation. Used by the planner to split and
/// weigh; deterministic for a given (cs, opts).
FlowMutantSet probeFlowMutants(const ips::CaseStudy& cs, const core::FlowOptions& opts);

/// The unit plan of a spec: every unit in global task-id order (fragments
/// of one item in range order) with its weight, so a work-stealing
/// scheduler (campaign/dispatch.h) can order its queue heaviest-first.
struct DispatchUnitPlan {
  std::uint64_t specFnv = 0;
  std::vector<ShardUnit> units;
  std::vector<std::uint64_t> weights;  ///< parallel to units; >= 1 each
};

/// Build the unit list: items split into mutant-range fragments of at most
/// maxFragmentMutants (0 = never split). When fragmentation is requested
/// (probed via probeFlowMutants), every unit weighs the distinct mutant
/// classes in its range — the co-simulations it runs; otherwise every unit
/// weighs 1. Weights only order the queue; they never change a result.
DispatchUnitPlan planDispatchUnits(const CampaignSpec& spec, std::size_t maxFragmentMutants);

/// The frame a worker receives for `unit`, task `taskIndex` of `taskCount`:
/// `specFnv` (the plan's fingerprint of `spec`), the unit, and the unit's
/// item as a one-item spec with the campaign's name and executor settings.
/// The pool fills in campaignId, seq and attempt.
SubmitFrame unitFrame(const CampaignSpec& spec, std::uint64_t specFnv, const ShardUnit& unit,
                      std::size_t taskIndex, std::size_t taskCount);

/// The execution record of one unit list: an ordinary CampaignResult whose
/// items are the units' results (taskIds global, list order) plus the
/// coordinates needed to validate a merge.
struct ShardOutput {
  std::uint64_t specFnv = 0;
  int shardIndex = -1;
  int shardCount = 0;
  std::vector<ShardUnit> units;  ///< parallel to result.items
  CampaignResult result;
};

/// Run a unit frame in this process: its one item, limited to the unit's
/// mutant range, as an ordinary campaign. The output is a mergeable
/// one-unit ShardOutput (shardIndex = task index, shardCount = task count,
/// the frame's specFnv) whose item carries the unit's GLOBAL task id.
/// Throws std::invalid_argument unless the frame carries exactly one item.
ShardOutput runUnitFrame(const SubmitFrame& frame);

/// Merge unit outputs back into one CampaignResult bit-identical
/// (sameResults) to runCampaign(spec). Every index in [0, shardCount) must
/// be covered; validates fingerprints, coverage (every task id covered,
/// fragment ranges contiguous from 0) and fragment report sizes, throwing
/// std::invalid_argument with a diagnostic otherwise.
///
/// Retry tolerance: a double-submitted shard or fragment (the dispatcher
/// re-queues work lost to a crashed worker, and a retry can race its dead
/// predecessor's already-delivered result) is deduplicated by fragment id —
/// (taskId, mutantBegin, mutantEnd) — keeping the copy from the
/// lowest-indexed shard. Duplicates must agree on label, error and
/// per-mutant results (retries are bit-identical by construction; a
/// disagreement means spec skew and fails the merge). Deduplicated copies
/// still contribute to the work ledgers: the simulation time was truly
/// spent twice.
CampaignResult mergeShards(const CampaignSpec& spec, const std::vector<ShardOutput>& outputs);

// --- wire format (campaign/serialize.cpp; kCampaignCodecVersion) -----------
std::string encodeShardOutput(const ShardOutput& output);
ShardOutput decodeShardOutput(std::string_view data);

/// Canonical spec fingerprint: util::fnv1a64 over encodeCampaignSpec(spec).
std::uint64_t campaignSpecFnv(const CampaignSpec& spec);

/// Built-in specs shared by tools/xlv_campaign, bench/campaign_shard and CI:
///   "smoke"  — the PR 2 acceptance sweep: 2 IPs (Filter, DSP) x 2 sensor
///              kinds x 2 STA corners, quick cycle budget (8 items);
///   "single" — one Filter/Counter item with a full mutant set (the
///              mutant-range fragmentation demo).
/// Throws std::invalid_argument on an unknown name.
CampaignSpec builtinCampaignSpec(const std::string& preset);
std::vector<std::string> builtinCampaignSpecNames();

}  // namespace xlv::campaign
