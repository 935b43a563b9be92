#include "core/flow.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "abstraction/emit_vhdl.h"
#include "abstraction/native_backend.h"
#include "analysis/checkpoint_cache.h"
#include "analysis/golden_cache.h"
#include "analysis/mutant_cache.h"
#include "ir/elaborate.h"
#include "util/fnv.h"
#include "util/timer.h"

namespace xlv::core {

using abstraction::TlmIpModel;
using abstraction::TlmModelConfig;
using insertion::SensorKind;

namespace {

/// Adapter: drive a simulator's inputs from a testbench driver session.
/// Callers obtain one driver per simulation run via driverForTask(), so
/// makeDriver-only (stateful) testbenches work everywhere, not just in the
/// mutation campaign.
template <class Sim>
void driveInputs(const analysis::DriveFn& drive, std::uint64_t cycle, Sim& sim) {
  drive(cycle, [&](const std::string& name, std::uint64_t v) {
    sim.setInputByName(name, v);
  });
  // The Razor recovery enable is an insertion-added port the stock
  // testbench does not know about.
  if (sim.design().findSymbol(insertion::AddedPorts::recovery) != ir::kNoSymbol) {
    sim.setInputByName(insertion::AddedPorts::recovery, 1);
  }
}

}  // namespace

std::uint64_t flowCycles(const ips::CaseStudy& cs, const FlowOptions& opts) {
  return opts.testbenchCycles != 0 ? opts.testbenchCycles : cs.testbench.cycles;
}

int flowHfRatio(const ips::CaseStudy& cs, const FlowOptions& opts) {
  if (opts.sensorKind != SensorKind::Counter) return 0;
  return opts.hfRatio.value_or(cs.hfRatio);
}

const char* mutantSetVariantName(MutantSetVariant v) noexcept {
  switch (v) {
    case MutantSetVariant::MinDelay: return "min";
    case MutantSetVariant::MaxDelay: return "max";
    case MutantSetVariant::Full: break;
  }
  return "full";
}

std::vector<mutation::MutantSpec> sliceMutantSet(
    const std::vector<mutation::MutantSpec>& specs, MutantSetVariant variant) {
  if (variant == MutantSetVariant::Full) return specs;
  // Keep, per endpoint, the least (MinDelay) or most (MaxDelay) severe
  // mutant. Razor sets carry one MinDelay + one MaxDelay spec per endpoint
  // (kind decides); Counter sets carry a DeltaDelay triple ordered by
  // ascending severity factor, so severity is the deltaTicks value. The
  // scan is stable: the first spec of the winning severity represents its
  // endpoint, and endpoint order follows first appearance in the input.
  const bool wantMax = variant == MutantSetVariant::MaxDelay;
  std::vector<mutation::MutantSpec> out;
  std::vector<std::string> seen;
  for (const auto& spec : specs) {
    if (std::find(seen.begin(), seen.end(), spec.targetSignal) != seen.end()) continue;
    seen.push_back(spec.targetSignal);
    const mutation::MutantSpec* best = &spec;
    for (const auto& s : specs) {
      if (s.targetSignal != spec.targetSignal) continue;
      if (s.kind != best->kind) {
        // Razor: the MaxDelay kind is the severe one.
        const bool sIsMax = s.kind == mutation::MutantKind::MaxDelay;
        if (sIsMax == wantMax) best = &s;
      } else if (wantMax ? s.deltaTicks > best->deltaTicks
                         : s.deltaTicks < best->deltaTicks) {
        best = &s;
      }
    }
    out.push_back(*best);
  }
  return out;
}

double timeRtlSimulation(const ir::Design& d, const ips::CaseStudy& cs, int hfRatio,
                         std::uint64_t cycles) {
  rtl::RtlSimulator<hdt::FourState> sim(
      d, rtl::KernelConfig{cs.periodPs, hfRatio, 100000});
  const analysis::DriveFn drive = cs.testbench.driverForTask(0);
  sim.setStimulus([&, drive](std::uint64_t c, rtl::RtlSimulator<hdt::FourState>& s) {
    driveInputs(drive, c, s);
  });
  util::Timer t;
  sim.runCycles(cycles);
  return t.seconds();
}

template <class P>
double timeTlmSimulation(const ir::Design& d, const ips::CaseStudy& cs, int hfRatio,
                         std::uint64_t cycles) {
  TlmIpModel<P> model(d, TlmModelConfig{hfRatio, false});
  const analysis::DriveFn drive = cs.testbench.driverForTask(0);
  util::Timer t;
  for (std::uint64_t c = 0; c < cycles; ++c) {
    driveInputs(drive, c, model);
    model.scheduler();
  }
  return t.seconds();
}

template double timeTlmSimulation<hdt::FourState>(const ir::Design&, const ips::CaseStudy&,
                                                  int, std::uint64_t);
template double timeTlmSimulation<hdt::TwoState>(const ir::Design&, const ips::CaseStudy&, int,
                                                 std::uint64_t);

// --- Step 0: elaborate the clean IP -----------------------------------------
namespace {

/// Option sanity shared by EVERY entry into the flow — the direct stages
/// and the cached-prefix path alike, so an invalid item fails with the
/// SAME error string whichever path (and whichever cache-population order)
/// it takes; error text is part of CampaignResult::sameResults.
void validateFlowOptions(const ips::CaseStudy& cs, const FlowOptions& opts) {
  if (opts.sensorKind == SensorKind::Counter && flowHfRatio(cs, opts) < 1) {
    // A Counter flow schedules a high-frequency clock at hfRatio ticks per
    // main-clock cycle; a non-positive ratio cannot drive the dual-clock
    // scheduler and must fail the item up front, not deep inside a model.
    throw std::invalid_argument("flow: Counter flow on '" + cs.name +
                                "' requires hfRatio >= 1, got " +
                                std::to_string(flowHfRatio(cs, opts)));
  }
}

}  // namespace

void stageElaborate(const ips::CaseStudy& cs, const FlowOptions& opts, FlowReport& report) {
  if (cs.module == nullptr) {
    throw std::invalid_argument("flow: case study '" + cs.name + "' has no module");
  }
  validateFlowOptions(cs, opts);
  report.ipName = cs.name;
  report.sensorKind = opts.sensorKind;
  report.hfRatio = flowHfRatio(cs, opts);
  report.cleanDesign = ir::elaborate(*cs.module);
  report.loc.rtlClean = abstraction::countLines(abstraction::emitVhdl(*cs.module));
}

// --- Step 1: STA + sensor insertion (Section 4) ------------------------------

namespace {

/// The post-STA half of stageInsertion: deterministic in (cs, opts,
/// report.sta). Shared by the normal stage and the disk-spill rebuild path
/// (rebuildFlowPrefix), which re-runs insertion against a stored report.
void applyInsertion(const ips::CaseStudy& cs, const FlowOptions& opts, FlowReport& report) {
  insertion::InsertionConfig icfg;
  icfg.kind = opts.sensorKind;
  auto ins = insertion::insertSensors(*cs.module, report.sta, icfg);
  report.sensors = ins.sensors;
  report.skippedEndpoints = ins.skippedEndpoints;
  report.sensorAreaGates = ins.sensorAreaGates;
  report.loc.rtlAugmented = abstraction::countLines(abstraction::emitVhdl(*ins.augmented));
  report.augmentedDesign = ir::elaborate(*ins.augmented);
}

}  // namespace

void stageInsertion(const ips::CaseStudy& cs, const FlowOptions& opts, FlowReport& report) {
  sta::StaConfig staCfg;
  staCfg.clockPeriodPs = static_cast<double>(cs.periodPs);
  staCfg.thresholdFraction = opts.staThresholdFraction.value_or(cs.staThresholdFraction);
  staCfg.spreadFraction = opts.staSpreadFraction.value_or(cs.staSpreadFraction);
  if (opts.staCorner) staCfg.corner = *opts.staCorner;
  report.sta = sta::analyze(report.cleanDesign, staCfg);
  report.timings.staSeconds = report.sta.analysisSeconds;
  applyInsertion(cs, opts, report);
}

// --- Step 2: RTL-to-TLM abstraction (Section 5) ------------------------------
void stageAbstraction(FlowReport& report) {
  abstraction::AbstractionOptions aopts;
  aopts.hfRatio = report.hfRatio;
  report.loc.tlm = abstraction::abstractDesign(report.augmentedDesign, aopts).sourceLines;
}

// --- Step 3: mutant injection (Section 6) ------------------------------------
void stageInjection(const ips::CaseStudy& cs, const FlowOptions& opts, FlowReport& report) {
  if (opts.sensorKind == SensorKind::Razor) {
    report.mutantSpecs = analysis::razorMutantSet(report.sensors);
  } else {
    report.mutantSpecs = analysis::counterMutantSet(
        report.sensors, static_cast<double>(cs.periodPs), report.hfRatio);
  }
  report.mutantSpecs = sliceMutantSet(report.mutantSpecs, opts.mutantSet);
  report.injected = mutation::injectMutants(report.augmentedDesign, report.mutantSpecs);
  abstraction::AbstractionOptions aopts;
  aopts.hfRatio = report.hfRatio;
  report.loc.tlmInjected =
      abstraction::abstractInjected(report.injected, aopts).sourceLines;
}

// --- Timing measurements -----------------------------------------------------
void stageTimings(const ips::CaseStudy& cs, const FlowOptions& opts, FlowReport& report) {
  const std::uint64_t cycles = flowCycles(cs, opts);
  auto repeat = [&](auto&& fn) {
    double total = 0.0;
    const int n = std::max(1, opts.timingRepetitions);
    for (int i = 0; i < n; ++i) total += fn();
    return total / n;
  };
  if (opts.measureRtl) {
    report.timings.rtlSeconds = repeat([&] {
      return timeRtlSimulation(report.augmentedDesign, cs, report.hfRatio, cycles);
    });
  }
  if (opts.measureTlm) {
    report.timings.tlmSeconds = repeat([&] {
      return timeTlmSimulation<hdt::FourState>(report.augmentedDesign, cs, report.hfRatio,
                                               cycles);
    });
  }
  if (opts.measureOptimized) {
    report.timings.tlmOptSeconds = repeat([&] {
      return timeTlmSimulation<hdt::TwoState>(report.augmentedDesign, cs, report.hfRatio,
                                              cycles);
    });
  }
  if (opts.measureTlm) {
    // Injected model with all mutants inactive (Table 5's simulation cost).
    TlmIpModel<hdt::FourState> model(report.injected,
                                     TlmModelConfig{report.hfRatio, false});
    const analysis::DriveFn drive = cs.testbench.driverForTask(0);
    util::Timer t;
    for (std::uint64_t c = 0; c < cycles; ++c) {
      driveInputs(drive, c, model);
      model.scheduler();
    }
    report.timings.injectedSeconds = t.seconds();
  }
}

// --- Step 4: mutation analysis (Section 7) -----------------------------------
void stageAnalysis(const ips::CaseStudy& cs, const FlowOptions& opts, FlowReport& report) {
  analysis::AnalysisConfig acfg;
  acfg.hfRatio = report.hfRatio;
  acfg.sensorKind = opts.sensorKind;
  acfg.threads = opts.analysisThreads;
  acfg.useGoldenCache = opts.useGoldenCache;
  acfg.useMutantCache = opts.useMutantCache;
  acfg.mutantBegin = opts.mutantBegin;
  acfg.mutantEnd = opts.mutantEnd;
  acfg.backend = opts.backend;
  acfg.batch = opts.batch;
  analysis::Testbench tb = cs.testbench;
  tb.cycles = flowCycles(cs, opts);
  report.analysis = analysis::analyzeMutations<hdt::FourState>(
      report.augmentedDesign, report.injected, report.sensors, tb, acfg);
}

// --- shared stage prefixes ----------------------------------------------------

FlowPrefix buildFlowPrefix(const ips::CaseStudy& cs, const FlowOptions& opts) {
  FlowPrefix prefix;
  stageElaborate(cs, opts, prefix.report);
  stageInsertion(cs, opts, prefix.report);
  return prefix;
}

FlowPrefix rebuildFlowPrefix(const ips::CaseStudy& cs, const FlowOptions& opts,
                             const sta::StaReport& sta) {
  FlowPrefix prefix;
  stageElaborate(cs, opts, prefix.report);
  prefix.report.sta = sta;
  // No STA traversal ran here; its historical cost stays with the process
  // that recorded the artifact.
  prefix.report.sta.analysisSeconds = 0.0;
  prefix.report.timings.staSeconds = 0.0;
  applyInsertion(cs, opts, prefix.report);
  return prefix;
}

std::string flowPrefixKey(const ips::CaseStudy& cs, const FlowOptions& opts) {
  // Exactly the inputs stageElaborate + stageInsertion consume — including
  // the module *content* (hash of its canonical emitted VHDL), so two
  // same-named case studies with different modules never alias. hfRatio,
  // cycle budget and mutant set are later-stage concerns and must NOT key
  // the prefix (that is what makes sweeping them free).
  const std::uint64_t moduleHash =
      cs.module ? util::fnv1a64(abstraction::emitVhdl(*cs.module)) : 0;
  const sta::Corner corner = opts.staCorner.value_or(sta::StaConfig{}.corner);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "m=%016" PRIx64 "|kind=%s|thr=%.17g|spread=%.17g|period=%" PRIu64
                "|cp=%.17g|cv=%.17g|ct=%.17g",
                moduleHash, insertion::sensorKindName(opts.sensorKind),
                opts.staThresholdFraction.value_or(cs.staThresholdFraction),
                opts.staSpreadFraction.value_or(cs.staSpreadFraction),
                static_cast<std::uint64_t>(cs.periodPs), corner.processFactor,
                corner.voltageFactor, corner.temperatureFactor);
  // Variable-length names are length-prefixed so a '|' inside one cannot
  // alias another field boundary.
  std::string key("ip=");
  key.append(std::to_string(cs.name.size())).append(":").append(cs.name);
  key.append("|corner=").append(std::to_string(corner.name.size())).append(":");
  key.append(corner.name).append("|").append(buf);
  return key;
}

util::OnceCache<FlowPrefix>& flowPrefixCache() {
  static util::OnceCache<FlowPrefix> cache;
  return cache;
}

void clearProcessCaches() {
  flowPrefixCache().clear();
  analysis::goldenTraceCache().clear();
  analysis::mutantResultCache().clear();
  analysis::checkpointCache().clear();
  abstraction::clearNativeLibraryCache();
}

FlowReport runFlowWithPrefix(const FlowPrefix& prefix, const ips::CaseStudy& cs,
                             const FlowOptions& opts) {
  // The prefix key deliberately excludes hfRatio, so an item with an
  // invalid per-point option can arrive here on a prefix some VALID item
  // built: re-validate, or the error (and the report) would depend on
  // which item populated the cache first.
  validateFlowOptions(cs, opts);
  if (prefix.report.ipName != cs.name || prefix.report.sensorKind != opts.sensorKind) {
    throw std::invalid_argument("flow: prefix built for " + prefix.report.ipName +
                                " does not match case study '" + cs.name + "'");
  }
  FlowReport report = prefix.report;
  // hfRatio is a per-point axis the shared prefix cannot carry.
  report.hfRatio = flowHfRatio(cs, opts);
  stageAbstraction(report);
  stageInjection(cs, opts, report);
  stageTimings(cs, opts, report);
  if (opts.runMutationAnalysis) {
    stageAnalysis(cs, opts, report);
  }
  return report;
}

FlowReport runFlow(const ips::CaseStudy& cs, const FlowOptions& opts) {
  FlowReport report;
  stageElaborate(cs, opts, report);
  stageInsertion(cs, opts, report);
  stageAbstraction(report);
  stageInjection(cs, opts, report);
  stageTimings(cs, opts, report);
  if (opts.runMutationAnalysis) {
    stageAnalysis(cs, opts, report);
  }
  return report;
}

}  // namespace xlv::core
