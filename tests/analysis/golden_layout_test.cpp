// One layout per flow: prepareMutationCampaign records the golden trace on
// the injected layout with no mutant active. Inactive ADAM mutants commit
// at the edge (mutation/adam.h), so that trace must encode to the same bytes
// as recordGoldenTrace's recording on the golden design — on every case
// study, both sensor kinds, both value policies, and the native engine.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "abstraction/native_backend.h"
#include "analysis/golden_cache.h"
#include "analysis/mutation_analysis.h"
#include "core/flow.h"
#include "ips/case_study.h"

namespace xlv::analysis {
namespace {

using insertion::SensorKind;

constexpr std::uint64_t kCycles = 400;

struct Flow {
  core::FlowReport report;
  Testbench tb;
  AnalysisConfig cfg;
};

Flow injectedFlow(const ips::CaseStudy& cs, SensorKind kind, SimBackend backend) {
  core::FlowOptions opts;
  opts.sensorKind = kind;
  opts.testbenchCycles = kCycles;
  Flow f;
  core::stageElaborate(cs, opts, f.report);
  core::stageInsertion(cs, opts, f.report);
  core::stageInjection(cs, opts, f.report);
  f.tb = cs.testbench;
  f.tb.cycles = kCycles;
  f.cfg.hfRatio = f.report.hfRatio;
  f.cfg.sensorKind = kind;
  f.cfg.backend = backend;
  return f;
}

/// prepare's trace (injected layout) against recordGoldenTrace's (golden
/// layout); with `native`, prepare must have run on the native engine.
template <class P>
void expectInjectedTraceIsGolden(const Flow& f, bool native = false) {
  const core::FlowReport& r = f.report;
  const MutationCampaignContext ctx =
      prepareMutationCampaign<P>(r.augmentedDesign, r.injected, r.sensors, f.tb, f.cfg);
  ASSERT_FALSE(ctx.layout->mutants.empty());
  EXPECT_EQ(native, ctx.nativeLib != nullptr);
  const GoldenTrace golden = recordGoldenTrace<P>(r.augmentedDesign, r.sensors, f.tb, f.cfg);
  EXPECT_EQ(encodeGoldenTrace(golden), encodeGoldenTrace(*ctx.gold));
}

ips::CaseStudy caseStudy(const std::string& name) {
  if (name == "plasma") return ips::buildPlasmaCase();
  if (name == "dsp") return ips::buildDspCase();
  if (name == "filter") return ips::buildFilterCase();
  return ips::buildHandshakeCase();
}

class InjectedGoldenTraceP
    : public ::testing::TestWithParam<std::tuple<std::string, SensorKind>> {};

TEST_P(InjectedGoldenTraceP, MatchesGoldenDesignRecordingOnBothPolicies) {
  const auto& [ip, kind] = GetParam();
  const Flow f = injectedFlow(caseStudy(ip), kind, SimBackend::Interpreter);
  expectInjectedTraceIsGolden<hdt::FourState>(f);
  expectInjectedTraceIsGolden<hdt::TwoState>(f);
}

INSTANTIATE_TEST_SUITE_P(
    CaseStudies, InjectedGoldenTraceP,
    ::testing::Combine(::testing::Values("plasma", "dsp", "filter", "handshake"),
                       ::testing::Values(SensorKind::Razor, SensorKind::Counter)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             insertion::sensorKindName(std::get<1>(info.param));
    });

TEST(InjectedGoldenTrace, NativeEngineMatchesGoldenDesignRecording) {
  if (!abstraction::nativeToolchainAvailable()) {
    GTEST_SKIP() << "no system C++ compiler — native backend unavailable";
  }
  expectInjectedTraceIsGolden<hdt::FourState>(
      injectedFlow(ips::buildFilterCase(), SensorKind::Counter, SimBackend::Native),
      /*native=*/true);
}

}  // namespace
}  // namespace xlv::analysis
