// VerificationFlow: the paper's four-step methodology (Fig. 3) as
// composable stages plus a facade:
//
//   stageElaborate   — elaborate the clean IP (step 0);
//   stageInsertion   — STA-driven sensor insertion (step 1, Section 4);
//   stageAbstraction — RTL-to-TLM abstraction (step 2, Section 5);
//   stageInjection   — delay-mutant injection (step 3, Section 6);
//   stageTimings     — the cross-level timing measurements behind
//                      Tables 3, 4 and 5;
//   stageAnalysis    — mutation analysis (step 4, Section 7).
//
// runFlow() chains all stages on one (IP × sensor-kind) combination —
// today's monolithic behavior. The stages are public so the campaign layer
// (campaign/campaign.h) can launch them per combination across threads, or
// reuse an expensive prefix (elaborate + insertion + injection) while
// sweeping only the analysis stage.
//
// Each stage reads its inputs from, and writes its outputs into, the
// FlowReport accumulator; stages after stageInsertion only touch fields the
// earlier stages produced, so a FlowReport fragment can be shared read-only
// once its producing stage has run.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "abstraction/abstractor.h"
#include "analysis/mutation_analysis.h"
#include "insertion/insertion.h"
#include "ips/case_study.h"
#include "mutation/adam.h"
#include "rtl/kernel.h"
#include "sta/sta.h"
#include "util/once_cache.h"

namespace xlv::core {

/// Which slice of the generated mutant set an analysis runs — the
/// "mutant-set variant" sweep axis. Full keeps every mutant; MinDelay /
/// MaxDelay keep, per monitored endpoint, only the least / most severe
/// mutant (Razor: the MinDelay / MaxDelay kind; Counter: the smallest /
/// largest deltaTicks of the endpoint's DeltaDelay triple).
enum class MutantSetVariant { Full, MinDelay, MaxDelay };

const char* mutantSetVariantName(MutantSetVariant v) noexcept;
/// Every variant, for readers that find a variant by its name.
inline constexpr MutantSetVariant kMutantSetVariants[] = {
    MutantSetVariant::Full, MutantSetVariant::MinDelay, MutantSetVariant::MaxDelay};

struct FlowOptions {
  insertion::SensorKind sensorKind = insertion::SensorKind::Razor;
  /// Override the case study's testbench length (0 = keep).
  std::uint64_t testbenchCycles = 0;
  // --- sweep-axis overrides (unset = keep the case study's value) ----------
  /// PVT / V-f operating-point corner for the STA binning (Table 1 points;
  /// unset = sta::StaConfig's default worst-setup corner).
  std::optional<sta::Corner> staCorner;
  std::optional<double> staThresholdFraction;
  std::optional<double> staSpreadFraction;
  /// Counter-version HF clock ratio override (ignored for Razor).
  std::optional<int> hfRatio;
  /// Mutant-set slice injected and analyzed (see MutantSetVariant).
  MutantSetVariant mutantSet = MutantSetVariant::Full;
  /// Analyze only injected-mutant indices [mutantBegin, mutantEnd) of the
  /// (already variant-sliced) set; 0/0 = every mutant. Process-level shard
  /// fragments of one oversized item use this — the full set is still
  /// injected (so the augmented design, its fingerprint and the golden
  /// trace stay identical to the unsharded run) and MutantResult ids stay
  /// global, which is what lets campaign/shard.h stitch fragment reports
  /// back into the single-process result bit-identically.
  std::size_t mutantBegin = 0;
  std::size_t mutantEnd = 0;
  /// Share the golden trace through the process-wide cache
  /// (analysis/golden_cache.h). Off by default: single flows gain nothing;
  /// sweeps turn it on so axis points differing only in mutant set / STA
  /// binning of an identical critical set skip the golden re-run.
  bool useGoldenCache = false;
  /// Reuse per-mutant results through the process-wide cache
  /// (analysis/mutant_cache.h). Off by default for the same reason; sweeps
  /// turn it on so mutant-set-variant points (full ⊃ min/max) — and, with a
  /// util::processArtifactStore() configured, warm re-runs and sharded
  /// workers — skip the per-mutant co-simulations.
  bool useMutantCache = false;
  /// Simulation engine for the mutation campaign (golden recording and all
  /// mutant co-simulations): Auto defers to XLV_BACKEND, Native compiles
  /// the injected model into a shared library (interpreter fallback when no
  /// system compiler is available). Results are bit-identical either way.
  analysis::SimBackend backend = analysis::SimBackend::Auto;
  /// Mutants co-simulated lock-step per campaign task (0 = XLV_BATCH or 1).
  int batch = 0;
  /// Simulation-time measurements repeat this many times; the mean is kept
  /// (the paper averages over a number of executions).
  int timingRepetitions = 1;
  bool measureRtl = true;          ///< event-driven kernel baseline (Table 3)
  bool measureTlm = true;          ///< abstracted TLM model timing (Table 3)
  bool measureOptimized = true;    ///< HDTLib 2-state policy (Table 4)
  bool runMutationAnalysis = true; ///< Table 5
  /// Worker threads for the per-mutant analysis of a standalone runFlow:
  /// 1 = serial, 0 = auto (XLV_THREADS / hardware), n > 1 = exactly n.
  /// Inside a campaign item it has no effect: the analysis runs on the
  /// campaign's pool (campaign/executor.h, nested runs).
  int analysisThreads = 1;
};

struct FlowTimings {
  double rtlSeconds = 0.0;        ///< event-driven RTL kernel, 4-state
  double tlmSeconds = 0.0;        ///< abstracted TLM model, 4-state
  double tlmOptSeconds = 0.0;     ///< abstracted TLM model, HDTLib 2-state
  double injectedSeconds = 0.0;   ///< injected TLM model (mutants inactive)
  double staSeconds = 0.0;
};

struct FlowLoc {
  int rtlClean = 0;      ///< emitted VHDL of the original IP
  int rtlAugmented = 0;  ///< emitted VHDL after sensor insertion
  int tlm = 0;           ///< emitted SystemC-TLM C++ of the abstracted IP
  int tlmInjected = 0;   ///< with ADAM mutants
};

struct FlowReport {
  std::string ipName;
  insertion::SensorKind sensorKind = insertion::SensorKind::Razor;
  sta::StaReport sta;
  ir::Design cleanDesign;
  ir::Design augmentedDesign;
  std::vector<insertion::InsertedSensor> sensors;
  int skippedEndpoints = 0;
  double sensorAreaGates = 0.0;
  mutation::InjectedDesign injected;
  std::vector<mutation::MutantSpec> mutantSpecs;
  analysis::AnalysisReport analysis;
  FlowTimings timings;
  FlowLoc loc;
  int hfRatio = 0;  ///< 0 for Razor versions, case-study ratio for Counter
};

/// The effective cycle budget of a flow invocation.
std::uint64_t flowCycles(const ips::CaseStudy& cs, const FlowOptions& opts);

/// The effective HF clock ratio (Counter: case-study value unless
/// overridden; Razor: always 0).
int flowHfRatio(const ips::CaseStudy& cs, const FlowOptions& opts);

/// Apply the mutant-set variant slice (FlowOptions::mutantSet) to a
/// generated mutant set. Full returns the input unchanged; MinDelay /
/// MaxDelay keep one mutant per endpoint (stable: first match wins on ties).
std::vector<mutation::MutantSpec> sliceMutantSet(
    const std::vector<mutation::MutantSpec>& specs, MutantSetVariant variant);

// --- shared stage prefixes ---------------------------------------------------
// A FlowPrefix is the immutable result of the elaborate + insertion stages
// (the re-elaboration a sweep must not repeat): sweep points that agree on
// (IP, sensor kind, corner, threshold/spread binning, clock period) share
// one prefix and only run injection/timings/analysis per point. hfRatio,
// cycles and the mutant set deliberately do NOT key the prefix — they only
// affect later stages, and runFlowWithPrefix recomputes the per-point
// hfRatio on its private FlowReport copy.

struct FlowPrefix {
  FlowReport report;  ///< fragment filled by stageElaborate + stageInsertion
};
using FlowPrefixPtr = std::shared_ptr<const FlowPrefix>;

/// Build the shared prefix: stageElaborate + stageInsertion.
FlowPrefix buildFlowPrefix(const ips::CaseStudy& cs, const FlowOptions& opts);

/// Rebuild a prefix from a previously computed STA report — the disk-spill
/// path of the prefix cache (campaign/serialize.h: decodeFlowPrefix).
/// Elaboration and sensor insertion re-run deterministically against the
/// given report (skipping the STA traversal), so the result is identical to
/// buildFlowPrefix modulo timing fields, provided `sta` came from the same
/// (cs, opts) — which the artifact key guarantees and the decoder
/// cross-checks.
FlowPrefix rebuildFlowPrefix(const ips::CaseStudy& cs, const FlowOptions& opts,
                             const sta::StaReport& sta);

/// Deterministic identity of the prefix a (cs, opts) pair would build —
/// the key of the process-wide prefix cache (serialized axis values, exact
/// double rendering).
std::string flowPrefixKey(const ips::CaseStudy& cs, const FlowOptions& opts);

/// The process-wide prefix cache (util::OnceCache semantics: concurrent
/// requests for one key elaborate exactly once). Cleared only by
/// tests/benches.
util::OnceCache<FlowPrefix>& flowPrefixCache();

/// Test/bench hook: clear EVERY process-wide in-memory artifact cache —
/// stage prefixes, golden traces, per-mutant results — i.e. exactly what a
/// fresh worker process starts with. One helper so a newly added cache
/// cannot be missed by one of the "cold leg" call sites (which would
/// silently turn a bit-identity or zero-hit assertion vacuous). Does not
/// touch the on-disk artifact store.
void clearProcessCaches();

/// Run the remaining stages (abstraction, injection, timings, analysis) on a
/// private copy of the prefix fragment. The prefix must have been built for
/// the same case study, sensor kind and STA binning as `opts`.
FlowReport runFlowWithPrefix(const FlowPrefix& prefix, const ips::CaseStudy& cs,
                             const FlowOptions& opts);

// --- composable stages (each fills its slice of the FlowReport) -------------
void stageElaborate(const ips::CaseStudy& cs, const FlowOptions& opts, FlowReport& report);
void stageInsertion(const ips::CaseStudy& cs, const FlowOptions& opts, FlowReport& report);
void stageAbstraction(FlowReport& report);
void stageInjection(const ips::CaseStudy& cs, const FlowOptions& opts, FlowReport& report);
void stageTimings(const ips::CaseStudy& cs, const FlowOptions& opts, FlowReport& report);
void stageAnalysis(const ips::CaseStudy& cs, const FlowOptions& opts, FlowReport& report);

/// Execute the full flow on one case study (all stages, in order).
FlowReport runFlow(const ips::CaseStudy& cs, const FlowOptions& opts);

/// Individual timing probes (used by the benches for finer control).
double timeRtlSimulation(const ir::Design& d, const ips::CaseStudy& cs, int hfRatio,
                         std::uint64_t cycles);
template <class P>
double timeTlmSimulation(const ir::Design& d, const ips::CaseStudy& cs, int hfRatio,
                         std::uint64_t cycles);

extern template double timeTlmSimulation<hdt::FourState>(const ir::Design&,
                                                         const ips::CaseStudy&, int,
                                                         std::uint64_t);
extern template double timeTlmSimulation<hdt::TwoState>(const ir::Design&,
                                                        const ips::CaseStudy&, int,
                                                        std::uint64_t);

}  // namespace xlv::core
