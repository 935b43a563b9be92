// Mutation analysis harness: kill/detect/risen/corrected classification and
// the Table 5 mutant-set generators.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "analysis/mutation_analysis.h"
#include "ir/builder.h"
#include "ir/elaborate.h"
#include "sta/sta.h"

namespace xlv::analysis {
namespace {

using namespace xlv::ir;
using insertion::InsertionConfig;
using insertion::SensorKind;
using mutation::MutantKind;

constexpr std::uint64_t kPeriod = 1200;
constexpr int kRatio = 10;

struct Rig {
  Design design;
  std::vector<insertion::InsertedSensor> sensors;
  Testbench tb;

  explicit Rig(SensorKind kind) {
    ModuleBuilder mb("dut");
    auto clk = mb.clock("clk");
    auto din = mb.in("din", 8);
    auto dout = mb.out("dout", 8);
    auto r = mb.signal("r", 8);
    mb.onRising("ff", clk, [&](ProcBuilder& p) { p.assign(r, Ex(din) + Ex(r)); });
    mb.comb("drive", [&](ProcBuilder& p) { p.assign(dout, r); });
    auto ip = mb.finish();

    sta::StaConfig staCfg;
    staCfg.clockPeriodPs = kPeriod;
    staCfg.thresholdFraction = 1.0;
    auto report = sta::analyze(elaborate(*ip), staCfg);
    InsertionConfig icfg;
    icfg.kind = kind;
    auto ins = insertion::insertSensors(*ip, report, icfg);
    design = elaborate(*ins.augmented);
    sensors = ins.sensors;

    tb.name = "toggler";
    tb.cycles = 40;
    tb.drive = [](std::uint64_t, const PortSetter& set) { set("din", 3); };
  }
};

TEST(MutationAnalysis, RazorMutantsKilledRisenCorrected) {
  Rig rig(SensorKind::Razor);
  auto specs = razorMutantSet(rig.sensors);
  ASSERT_EQ(2u, specs.size());  // min + max per sensor
  auto injected = mutation::injectMutants(rig.design, specs);

  AnalysisConfig cfg;
  cfg.sensorKind = SensorKind::Razor;
  auto report = analyzeMutations<hdt::FourState>(rig.design, injected, rig.sensors, rig.tb, cfg);

  ASSERT_EQ(2, report.total());
  EXPECT_DOUBLE_EQ(100.0, report.killedPct());
  EXPECT_DOUBLE_EQ(100.0, report.risenPct());
  EXPECT_DOUBLE_EQ(100.0, report.correctedPct());
  EXPECT_DOUBLE_EQ(100.0, report.mutationScorePct());
  for (const auto& r : report.results) {
    EXPECT_TRUE(r.killed);
    EXPECT_TRUE(r.detected);
    EXPECT_TRUE(r.correctionChecked);
  }
}

TEST(MutationAnalysis, CounterMutantsMeasuredAndThresholded) {
  Rig rig(SensorKind::Counter);
  // One below, one at, one above the 8-period threshold.
  std::vector<mutation::MutantSpec> specs = {
      {"r", MutantKind::DeltaDelay, 3},
      {"r", MutantKind::DeltaDelay, 8},
      {"r", MutantKind::DeltaDelay, 9},
  };
  auto injected = mutation::injectMutants(rig.design, specs);
  AnalysisConfig cfg;
  cfg.hfRatio = kRatio;
  cfg.sensorKind = SensorKind::Counter;
  auto report = analyzeMutations<hdt::FourState>(rig.design, injected, rig.sensors, rig.tb, cfg);

  ASSERT_EQ(3, report.total());
  EXPECT_DOUBLE_EQ(100.0, report.killedPct());
  EXPECT_EQ(3u, report.results[0].measuredDelay);
  EXPECT_EQ(8u, report.results[1].measuredDelay);
  EXPECT_EQ(9u, report.results[2].measuredDelay);
  EXPECT_FALSE(report.results[0].errorRisen);  // below threshold: tolerable
  EXPECT_FALSE(report.results[1].errorRisen);  // at threshold: tolerable
  EXPECT_TRUE(report.results[2].errorRisen);   // above threshold
  // Counter has no correction: "n.a." in Table 5.
  EXPECT_DOUBLE_EQ(-1.0, report.correctedPct());
}

TEST(MutationAnalysis, UntoggledTargetSurvives) {
  Rig rig(SensorKind::Razor);
  rig.tb.drive = [](std::uint64_t, const PortSetter& set) { set("din", 0); };  // r frozen
  auto injected = mutation::injectMutants(rig.design, razorMutantSet(rig.sensors));
  AnalysisConfig cfg;
  auto report = analyzeMutations<hdt::FourState>(rig.design, injected, rig.sensors, rig.tb, cfg);
  // The testbench fails to stress the mutants: survived, not detected
  // (the paper's "testbench has failed to generate a proper input sequence").
  EXPECT_DOUBLE_EQ(0.0, report.killedPct());
  EXPECT_DOUBLE_EQ(0.0, report.risenPct());
}

TEST(MutationAnalysis, RazorMutantSetIsTwoPerSensor) {
  Rig rig(SensorKind::Razor);
  auto specs = razorMutantSet(rig.sensors);
  EXPECT_EQ(rig.sensors.size() * 2, specs.size());
  int mins = 0, maxs = 0;
  for (const auto& s : specs) {
    mins += s.kind == MutantKind::MinDelay ? 1 : 0;
    maxs += s.kind == MutantKind::MaxDelay ? 1 : 0;
  }
  EXPECT_EQ(mins, maxs);
}

TEST(MutationAnalysis, CounterMutantSetIsThreePerSensorWithinRange) {
  Rig rig(SensorKind::Counter);
  auto specs = counterMutantSet(rig.sensors, kPeriod, kRatio);
  EXPECT_EQ(rig.sensors.size() * 3, specs.size());
  for (const auto& s : specs) {
    EXPECT_EQ(MutantKind::DeltaDelay, s.kind);
    EXPECT_GE(s.deltaTicks, 1);
    EXPECT_LE(s.deltaTicks, kRatio);
  }
}

TEST(MutationAnalysis, ReportCountsConsistent) {
  Rig rig(SensorKind::Razor);
  auto injected = mutation::injectMutants(rig.design, razorMutantSet(rig.sensors));
  AnalysisConfig cfg;
  auto report = analyzeMutations<hdt::FourState>(rig.design, injected, rig.sensors, rig.tb, cfg);
  EXPECT_EQ(report.total(), report.countKilled());
  EXPECT_EQ(rig.tb.cycles, report.cyclesPerRun);
  EXPECT_GT(report.simSeconds, 0.0);
}

/// Sets one env knob for the scope and unsets it after, even on failure.
struct KnobEnv {
  const char* name;
  KnobEnv(const char* n, const char* value) : name(n) { ::setenv(n, value, 1); }
  ~KnobEnv() { ::unsetenv(name); }
};

TEST(MutationAnalysis, SimulationKnobsParseStrictly) {
  // A typo in a knob stops the run; it never silently means the default.
  {
    KnobEnv env("XLV_BATCH", "8x");
    EXPECT_THROW(resolveBatchSize(0), std::invalid_argument);
    EXPECT_EQ(4, resolveBatchSize(4)) << "an explicit batch never reads the env";
  }
  {
    KnobEnv env("XLV_BATCH", "8");
    EXPECT_EQ(8, resolveBatchSize(0));
  }
  {
    KnobEnv env("XLV_BACKEND", "natvie");
    EXPECT_THROW(resolveSimBackend(SimBackend::Auto), std::invalid_argument);
  }
  {
    KnobEnv env("XLV_BACKEND", "native");
    EXPECT_EQ(SimBackend::Native, resolveSimBackend(SimBackend::Auto));
  }
  {
    KnobEnv env("XLV_REFERENCE_SIM", "yes");
    EXPECT_THROW(referenceSimMode(), std::invalid_argument);
  }
  for (const char* off : {"", "0"}) {
    KnobEnv env("XLV_REFERENCE_SIM", off);
    EXPECT_FALSE(referenceSimMode()) << "XLV_REFERENCE_SIM='" << off << "'";
  }
  {
    KnobEnv env("XLV_REFERENCE_SIM", "1");
    EXPECT_TRUE(referenceSimMode());
  }
  EXPECT_EQ(1, resolveBatchSize(0));
  EXPECT_EQ(SimBackend::Interpreter, resolveSimBackend(SimBackend::Auto));
  EXPECT_FALSE(referenceSimMode());
}

}  // namespace
}  // namespace xlv::analysis
