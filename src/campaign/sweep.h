// Corner sweeps as campaign axes (ROADMAP; the configuration-coverage
// direction of PAPERS.md).
//
// A SweepSpec describes a cross-product over configuration axes — STA
// corner / V-f operating point, threshold and spread binning fractions, HF
// clock ratio, mutant-set variant — for a set of case studies and sensor
// kinds. expandSweep() flattens it into an ordinary CampaignSpec: one
// CampaignItem per axis-value combination, labelled deterministically as
//
//   <ip>/<sensor>[/<corner>][/thr=<v>][/spread=<v>][/hf=<v>][/mutants=<v>]
//
// (an axis contributes a label segment only when it is actually swept, i.e.
// its value list is non-empty). Item order is the nested-loop order
// cases > sensorKinds > corners > thresholds > spreads > hfRatios >
// mutantSets, so a sweep result is bit-identical across thread counts by
// the campaign's task-id merge rule.
//
// Redundant work is shared, not repeated:
//   * stage prefixes — points that agree on (IP, kind, corner, threshold,
//     spread) share one elaborate+insertion via the process-wide
//     core::flowPrefixCache() (items carry the prefix key; the first task
//     to need a prefix builds it, concurrent tasks block on that build);
//   * golden traces — points whose augmented design, testbench, cycles and
//     hfRatio agree (e.g. differing only in mutant set) reuse one golden
//     recording via analysis/golden_cache.h.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "campaign/campaign.h"

namespace xlv::campaign {

/// The value lists of the sweep cross-product. An empty list means "axis
/// not swept": the base/case-study value applies and no label segment is
/// emitted. sensorKinds is the only axis that defaults to a non-empty set
/// (the base option's kind) because every flow needs one.
struct SweepAxes {
  std::vector<insertion::SensorKind> sensorKinds;
  std::vector<sta::Corner> corners;
  std::vector<double> thresholdFractions;
  std::vector<double> spreadFractions;
  /// Applies to Counter items only — Razor ignores hfRatio, so for Razor
  /// points this axis collapses to one unlabelled slot instead of emitting
  /// duplicate sweep points.
  std::vector<int> hfRatios;
  std::vector<core::MutantSetVariant> mutantSets;
};

struct SweepSpec {
  std::string name = "sweep";
  std::vector<ips::CaseStudy> cases;
  core::FlowOptions base;  ///< applied to every point, axes override per point
  SweepAxes axes;
  ExecutorConfig executor;
  /// Share elaborate+insertion across points via core::flowPrefixCache().
  bool sharePrefixes = true;
  /// Share golden traces via the process-wide cache (sets
  /// FlowOptions::useGoldenCache on every point).
  bool shareGoldenTraces = true;
  /// Share per-mutant results via analysis::mutantResultCache() (sets
  /// FlowOptions::useMutantCache on every point): the mutant-set-variant
  /// axis becomes analysis-free once `full` has simulated its mutants
  /// (full ⊃ min/max), and with a util::processArtifactStore() configured
  /// the reuse extends across processes and runs.
  bool shareMutantResults = true;
};

/// Number of items expandSweep() will generate.
std::size_t sweepCardinality(const SweepSpec& sweep);

/// Deterministic label of one sweep point (also used by expandSweep).
std::string sweepPointLabel(const ips::CaseStudy& cs, const core::FlowOptions& opts,
                            const SweepAxes& axes);

/// Flatten the cross-product into a CampaignSpec (see file comment for the
/// ordering and sharing rules). Each point's mutation analysis shares the
/// sweep executor's pool with the points themselves (campaign/executor.h).
CampaignSpec expandSweep(const SweepSpec& sweep);

/// Convenience: expandSweep + runCampaign.
CampaignResult runSweep(const SweepSpec& sweep);

}  // namespace xlv::campaign
