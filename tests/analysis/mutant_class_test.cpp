// Mutant classes (fault collapsing, abstraction/tlm_model.h): same-target
// mutants whose phase points have only a combinational sweep between them
// behave bit-identically, so the analysis simulates one representative per
// class. These tests pin the class rule (abstraction::mutantClassSpec) and
// the grouping it gives, check with collapsing off (XLV_REFERENCE_SIM=1)
// that the members of every class really get identical results on every
// case study, and check that the fast path — analyzeMutations and the
// one-mutant simulateMutant alike — simulates each class once and still
// matches full replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "abstraction/native_backend.h"
#include "analysis/mutant_cache.h"
#include "analysis/mutation_analysis.h"
#include "core/flow.h"
#include "ips/case_study.h"
#include "tests/reference_mode_guard.h"

namespace xlv::analysis {
namespace {

using insertion::SensorKind;
using mutation::MutantKind;
using mutation::MutantSpec;

constexpr std::uint64_t kCycles = 400;

ips::CaseStudy caseStudy(const std::string& name) {
  if (name == "plasma") return ips::buildPlasmaCase();
  if (name == "dsp") return ips::buildDspCase();
  if (name == "filter") return ips::buildFilterCase();
  return ips::buildHandshakeCase();
}

/// Elaboration and sensor insertion of `cs` for `kind`.
core::FlowReport augmented(const ips::CaseStudy& cs, SensorKind kind) {
  core::FlowOptions opts;
  opts.sensorKind = kind;
  opts.testbenchCycles = kCycles;
  core::FlowReport r;
  core::stageElaborate(cs, opts, r);
  core::stageInsertion(cs, opts, r);
  return r;
}

/// The flow's own mutant set, injected.
mutation::InjectedDesign generatedSet(const ips::CaseStudy& cs, const core::FlowReport& r) {
  return mutation::injectMutants(
      r.augmentedDesign,
      r.sensorKind == SensorKind::Razor
          ? razorMutantSet(r.sensors)
          : counterMutantSet(r.sensors, static_cast<double>(cs.periodPs), r.hfRatio));
}

abstraction::TlmModelLayoutPtr layoutOf(const mutation::InjectedDesign& injected, int hfRatio) {
  return abstraction::buildTlmModelLayout(injected.design,
                                          abstraction::TlmModelConfig{hfRatio, false},
                                          injected.mutants);
}

Testbench testbenchOf(const ips::CaseStudy& cs) {
  Testbench tb = cs.testbench;
  tb.cycles = kCycles;
  return tb;
}

AnalysisConfig configOf(const core::FlowReport& r, SimBackend backend) {
  AnalysisConfig cfg;
  cfg.hfRatio = r.hfRatio;
  cfg.sensorKind = r.sensorKind;
  cfg.threads = 2;
  cfg.backend = backend;
  return cfg;
}

AnalysisReport analyze(const ips::CaseStudy& cs, const core::FlowReport& r,
                       const mutation::InjectedDesign& injected, SimBackend backend) {
  return analyzeMutations<hdt::FourState>(r.augmentedDesign, injected, r.sensors,
                                          testbenchOf(cs), configOf(r, backend));
}

MutantSpec classSpec(const abstraction::TlmModelLayout& layout, std::size_t i) {
  return abstraction::mutantClassSpec(layout.mutants[i].spec, layout.cfg.hfRatio);
}

/// Per mutant, the first mutant of `layout` with the same class spec: the
/// representative analyzeMutations simulates for it over the whole range.
std::vector<std::size_t> firstOfClass(const abstraction::TlmModelLayout& layout) {
  std::vector<std::size_t> first(layout.mutants.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    std::size_t j = 0;
    while (classSpec(layout, j) != classSpec(layout, i)) ++j;
    first[i] = j;
  }
  return first;
}

std::size_t classCount(const abstraction::TlmModelLayout& layout) {
  std::set<std::size_t> firsts;
  for (std::size_t f : firstOfClass(layout)) firsts.insert(f);
  return firsts.size();
}

/// A result without the fields that name its mutant: what every member of
/// a class must share.
MutantResult behaviour(MutantResult r) {
  r.id = -1;
  r.kind = MutantKind::MinDelay;
  r.deltaTicks = 0;
  return r;
}

/// Every member's result equals its class's first member's, once the
/// naming fields are normalised.
void expectMembersAgree(const abstraction::TlmModelLayout& layout, const AnalysisReport& report,
                        const std::string& what) {
  ASSERT_EQ(layout.mutants.size(), report.results.size()) << what;
  const std::vector<std::size_t> first = firstOfClass(layout);
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    EXPECT_EQ(behaviour(report.results[first[i]]), behaviour(report.results[i]))
        << what << ": mutant " << i << " differs from its class's first member " << first[i];
  }
}

/// The rule restated on the layout's phase table: same target, same phase
/// point, phase 1 counted as phase 0.
bool expectedSameClass(const abstraction::TlmModelLayout& layout, std::size_t i, std::size_t j) {
  const auto phase = [&](std::size_t m) {
    return layout.mutantPhase[m] == 1 ? 0 : layout.mutantPhase[m];
  };
  return layout.mutantTargetOf[i] == layout.mutantTargetOf[j] && phase(i) == phase(j);
}

void expectRuleHolds(const abstraction::TlmModelLayout& layout, const std::string& what) {
  for (std::size_t i = 0; i < layout.mutants.size(); ++i) {
    for (std::size_t j = 0; j < layout.mutants.size(); ++j) {
      EXPECT_EQ(expectedSameClass(layout, i, j), classSpec(layout, i) == classSpec(layout, j))
          << what << ": mutants " << i << " and " << j;
    }
  }
}

const std::vector<std::string> kCaseStudies = {"filter", "dsp", "handshake", "plasma"};

TEST(MutantClassSpec, RazorLayoutHasOneClassPerTarget) {
  for (const std::string& ip : kCaseStudies) {
    const ips::CaseStudy cs = caseStudy(ip);
    const core::FlowReport r = augmented(cs, SensorKind::Razor);
    const auto layout = layoutOf(generatedSet(cs, r), r.hfRatio);
    ASSERT_EQ(0, layout->cfg.hfRatio) << ip;
    ASSERT_EQ(2 * layout->mutantTargets.size(), layout->mutants.size()) << ip;
    EXPECT_EQ(layout->mutantTargets.size(), classCount(*layout)) << ip;
    expectRuleHolds(*layout, ip);
    for (std::size_t i = 0; i < layout->mutants.size(); ++i) {
      const MutantSpec expected{layout->mutants[i].spec.targetSignal, MutantKind::MinDelay, 0};
      EXPECT_EQ(expected, classSpec(*layout, i)) << ip << " mutant " << i;
    }
  }
}

TEST(MutantClassSpec, CounterLayoutHasOneClassPerTargetAndPhase) {
  for (const std::string& ip : kCaseStudies) {
    const ips::CaseStudy cs = caseStudy(ip);
    const core::FlowReport r = augmented(cs, SensorKind::Counter);
    const auto layout = layoutOf(generatedSet(cs, r), r.hfRatio);
    std::set<std::pair<int, int>> targetPhases;
    for (std::size_t i = 0; i < layout->mutants.size(); ++i) {
      targetPhases.emplace(layout->mutantTargetOf[i], layout->mutantPhase[i]);
    }
    expectRuleHolds(*layout, ip);
    EXPECT_EQ(targetPhases.size(), classCount(*layout)) << ip;
    EXPECT_LT(classCount(*layout), layout->mutants.size())
        << ip << ": the generated Counter set repeats (target, phase) pairs";
  }
}

/// One target's hand-made mixed set: MinDelay, DeltaDelay(1), DeltaDelay(2),
/// DeltaDelay(hfRatio), MaxDelay, and two DeltaDelays that never land.
std::vector<MutantSpec> mixedSet(const std::string& target, int hfRatio) {
  return {{target, MutantKind::MinDelay, 0},         {target, MutantKind::DeltaDelay, 1},
          {target, MutantKind::DeltaDelay, 2},       {target, MutantKind::DeltaDelay, hfRatio},
          {target, MutantKind::MaxDelay, 0},         {target, MutantKind::DeltaDelay, 0},
          {target, MutantKind::DeltaDelay, hfRatio + 1}};
}

TEST(MutantClassSpec, MixedCounterSetFoldsOnlyPhaseOneIntoPhaseZero) {
  const core::FlowReport r = augmented(ips::buildFilterCase(), SensorKind::Counter);
  ASSERT_FALSE(r.sensors.empty());
  const int hf = r.hfRatio;
  ASSERT_GE(hf, 3) << "DeltaDelay(2) and DeltaDelay(hfRatio) must be distinct phases";
  const std::string target = r.sensors[0].endpointName;
  const auto layout = layoutOf(mutation::injectMutants(r.augmentedDesign, mixedSet(target, hf)), hf);

  // MinDelay + DeltaDelay(1) are one class, the two no-phase mutants are
  // another, every other mutant is alone.
  EXPECT_EQ((std::vector<std::size_t>{0, 0, 2, 3, 4, 5, 5}), firstOfClass(*layout));
  expectRuleHolds(*layout, "mixed set");

  const std::vector<MutantSpec> canonical = {
      {target, MutantKind::MinDelay, 0},   {target, MutantKind::MinDelay, 0},
      {target, MutantKind::DeltaDelay, 2}, {target, MutantKind::DeltaDelay, hf},
      {target, MutantKind::MaxDelay, 0},   {target, MutantKind::DeltaDelay, 0},
      {target, MutantKind::DeltaDelay, 0}};
  for (std::size_t i = 0; i < canonical.size(); ++i) {
    const MutantSpec spec = classSpec(*layout, i);
    EXPECT_EQ(canonical[i], spec) << "mutant " << i << " -> "
                                  << mutation::mutantKindName(spec.kind) << " "
                                  << spec.deltaTicks;
  }
}

class MutantClassMembersP
    : public ::testing::TestWithParam<std::tuple<std::string, SensorKind>> {};

TEST_P(MutantClassMembersP, AgreeUnderFullReplayAndMatchTheFastPath) {
  const auto& [ip, kind] = GetParam();
  const ips::CaseStudy cs = caseStudy(ip);
  const core::FlowReport r = augmented(cs, kind);
  const mutation::InjectedDesign injected = generatedSet(cs, r);
  const auto layout = layoutOf(injected, r.hfRatio);

  AnalysisReport reference;
  {
    ReferenceModeGuard mode(true);
    reference = analyze(cs, r, injected, SimBackend::Interpreter);
  }
  EXPECT_EQ(reference.results.size() * kCycles, reference.cyclesSimulated)
      << "reference mode simulates every member";
  expectMembersAgree(*layout, reference, ip);
  int observed = 0;
  for (const MutantResult& res : reference.results) {
    observed += res.killed || res.detected ? 1 : 0;
  }
  EXPECT_GT(observed, 0) << ip << ": no class killed or detected — the check is vacuous";

  const AnalysisReport fast = analyze(cs, r, injected, SimBackend::Interpreter);
  EXPECT_TRUE(reference.sameResults(fast)) << ip << ": collapsed fast path diverged";
}

INSTANTIATE_TEST_SUITE_P(
    CaseStudies, MutantClassMembersP,
    ::testing::Combine(::testing::ValuesIn(kCaseStudies),
                       ::testing::Values(SensorKind::Razor, SensorKind::Counter)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             insertion::sensorKindName(std::get<1>(info.param));
    });

/// The mixed set on every Filter Counter endpoint: members agree under full
/// replay, and the collapsed fast path reproduces full replay.
void expectMixedSetCollapses(SimBackend backend) {
  const ips::CaseStudy cs = ips::buildFilterCase();
  const core::FlowReport r = augmented(cs, SensorKind::Counter);
  std::vector<MutantSpec> specs;
  for (const auto& s : r.sensors) {
    for (const MutantSpec& spec : mixedSet(s.endpointName, r.hfRatio)) specs.push_back(spec);
  }
  const mutation::InjectedDesign injected = mutation::injectMutants(r.augmentedDesign, specs);
  const auto layout = layoutOf(injected, r.hfRatio);

  AnalysisReport reference;
  {
    ReferenceModeGuard mode(true);
    reference = analyze(cs, r, injected, backend);
  }
  if (backend == SimBackend::Native) {
    EXPECT_GT(reference.nativeCompiles + reference.nativeCacheHits, 0) << "fell back?";
  }
  expectMembersAgree(*layout, reference, "filter mixed set");
  EXPECT_GT(reference.countDetected(), 0);

  const AnalysisReport fast = analyze(cs, r, injected, backend);
  EXPECT_TRUE(reference.sameResults(fast));
}

TEST(MutantClassMembers, MixedCounterSetOnTheInterpreter) {
  expectMixedSetCollapses(SimBackend::Interpreter);
}

TEST(MutantClassMembers, MixedCounterSetOnNative) {
  if (!abstraction::nativeToolchainAvailable()) {
    GTEST_SKIP() << "no system C++ compiler — native backend unavailable";
  }
  expectMixedSetCollapses(SimBackend::Native);
}

TEST(MutantClassMembers, FullRazorSetSimulatesAsManyCyclesAsItsMinDelaySlice) {
  // With every cache off, each MaxDelay mutant copies its endpoint's
  // MinDelay result, so the full set does exactly the MinDelay slice's
  // work (the checkpoint recording included: same targets, same depth).
  core::FlowOptions opts;
  opts.sensorKind = SensorKind::Razor;
  opts.testbenchCycles = kCycles;
  opts.measureRtl = false;
  opts.measureTlm = false;
  opts.measureOptimized = false;
  const core::FlowReport full = core::runFlow(ips::buildFilterCase(), opts);
  core::FlowOptions minOpts = opts;
  minOpts.mutantSet = core::MutantSetVariant::MinDelay;
  const core::FlowReport minSlice = core::runFlow(ips::buildFilterCase(), minOpts);

  ASSERT_EQ(2 * minSlice.analysis.results.size(), full.analysis.results.size());
  EXPECT_GT(minSlice.analysis.cyclesSimulated, 0u);
  EXPECT_EQ(minSlice.analysis.cyclesSimulated, full.analysis.cyclesSimulated);
  // Each MaxDelay member charges its whole run as skipped.
  EXPECT_EQ(minSlice.analysis.cyclesSkipped + minSlice.analysis.results.size() * kCycles,
            full.analysis.cyclesSkipped);

  core::FlowReport reference;
  {
    ReferenceModeGuard mode(true);
    reference = core::runFlow(ips::buildFilterCase(), opts);
  }
  EXPECT_TRUE(reference.analysis.sameResults(full.analysis));
}

/// simulateMutant over every mutant of `injected` in order, on one context
/// (the traced benchmark's loop): per-mutant results and stats, plus the
/// checkpoint recording, charged as analyzeMutations charges it.
struct OneAtATime {
  std::vector<MutantResult> results;
  std::vector<MutantSimStats> stats;
  std::uint64_t cyclesSimulated = 0;
  std::uint64_t cyclesSkipped = 0;
};

OneAtATime simulateOneAtATime(const ips::CaseStudy& cs, const core::FlowReport& r,
                              const mutation::InjectedDesign& injected) {
  const MutationCampaignContext ctx = prepareMutationCampaign<hdt::FourState>(
      r.augmentedDesign, injected, r.sensors, testbenchOf(cs),
      configOf(r, SimBackend::Interpreter));
  OneAtATime out;
  for (std::size_t i = 0; i < injected.mutants.size(); ++i) {
    MutantSimStats stats;
    out.results.push_back(simulateMutant<hdt::FourState>(ctx, static_cast<int>(i), &stats));
    out.stats.push_back(stats);
    out.cyclesSimulated += stats.cyclesSimulated;
    out.cyclesSkipped += stats.cyclesSkipped;
  }
  if (ctx.checkpoints->recorded.load() && ctx.checkpoints->rec != nullptr) {
    out.cyclesSimulated += ctx.checkpoints->rec->recordedCycles;
  }
  return out;
}

TEST(MutantClassMembers, SimulateMutantCopiesAClassMateItsContextSimulated) {
  // One mutant at a time, simulateMutant collapses like analyzeMutations:
  // a member whose class the context already simulated is a copy charged
  // as a whole run skipped, so the loop gets analyzeMutations' results and
  // ledger. Under XLV_REFERENCE_SIM=1 it simulates every member.
  const ips::CaseStudy cs = ips::buildFilterCase();
  for (SensorKind kind : {SensorKind::Razor, SensorKind::Counter}) {
    const std::string what = insertion::sensorKindName(kind);
    const core::FlowReport r = augmented(cs, kind);
    const mutation::InjectedDesign injected = generatedSet(cs, r);
    const AnalysisReport whole = analyze(cs, r, injected, SimBackend::Interpreter);
    const OneAtATime loop = simulateOneAtATime(cs, r, injected);
    const std::vector<std::size_t> first =
        firstOfClass(*layoutOf(injected, r.hfRatio));
    ASSERT_EQ(whole.results.size(), loop.results.size()) << what;
    for (std::size_t i = 0; i < loop.results.size(); ++i) {
      EXPECT_EQ(whole.results[i], loop.results[i]) << what << " mutant " << i;
      if (first[i] != i) {
        EXPECT_EQ(0u, loop.stats[i].cyclesSimulated) << what << " member " << i;
        EXPECT_EQ(kCycles, loop.stats[i].cyclesSkipped) << what << " member " << i;
      }
    }
    EXPECT_LT(classCount(*layoutOf(injected, r.hfRatio)), injected.mutants.size()) << what;
    EXPECT_EQ(whole.cyclesSimulated, loop.cyclesSimulated) << what;
    EXPECT_EQ(whole.cyclesSkipped, loop.cyclesSkipped) << what;

    ReferenceModeGuard mode(true);
    const OneAtATime reference = simulateOneAtATime(cs, r, injected);
    EXPECT_EQ(whole.results, reference.results) << what;
    EXPECT_EQ(injected.mutants.size() * kCycles, reference.cyclesSimulated) << what;
    EXPECT_EQ(0u, reference.cyclesSkipped) << what;
  }
}

}  // namespace
}  // namespace xlv::analysis
