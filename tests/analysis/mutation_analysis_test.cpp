// Mutation analysis harness: kill/detect/risen/corrected classification,
// the Table 5 mutant-set generators, and the mutant cache's set-aside walk.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "abstraction/tlm_model.h"
#include "analysis/golden_cache.h"
#include "analysis/mutant_cache.h"
#include "analysis/mutation_analysis.h"
#include "core/flow.h"
#include "ips/case_study.h"
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

/// The Filter case study with Counter sensors, analysed with the mutant
/// cache on.
struct FilterCounter {
  ips::CaseStudy cs = ips::buildFilterCase();
  core::FlowReport flow;
  Testbench tb;
  AnalysisConfig cfg;

  FilterCounter() {
    core::FlowOptions opts;
    opts.sensorKind = SensorKind::Counter;
    opts.testbenchCycles = 80;
    core::stageElaborate(cs, opts, flow);
    core::stageInsertion(cs, opts, flow);
    core::stageInjection(cs, opts, flow);
    tb = cs.testbench;
    tb.cycles = opts.testbenchCycles;
    cfg.hfRatio = flow.hfRatio;
    cfg.sensorKind = SensorKind::Counter;
    cfg.useMutantCache = true;
  }

  AnalysisReport analyze(int threads) const {
    AnalysisConfig c = cfg;
    c.threads = threads;
    return analyzeMutations<hdt::FourState>(flow.augmentedDesign, flow.injected, flow.sensors,
                                            tb, c);
  }
};

// A class another thread is simulating does not hold up the rest of the
// analysis: the analysis sets it aside, simulates every other class and
// only then waits for it. A helper thread claims the first
// representative's class and keeps it in flight until the mutant cache has
// built every other class, or for at most 10 s. An analysis that waited at
// the held class would build nothing meanwhile, so the helper would run
// into its cap.
TEST(MutantCacheSetAside, AClassInFlightElsewhereDoesNotStallTheOthers) {
  const FilterCounter f;
  core::clearProcessCaches();
  const AnalysisReport reference = f.analyze(1);
  const std::size_t classes = mutantResultCache().stats().misses;
  ASSERT_GE(classes, 2u);

  const mutation::MutantSpec cls =
      abstraction::mutantClassSpec(f.flow.injected.mutants.at(0).spec, f.cfg.hfRatio);
  const std::string heldKey =
      mutantResultKey(goldenTraceKey(f.flow.augmentedDesign, f.flow.sensors, f.tb, f.cfg, "4s"),
                      cls);
  MutantResult stored = reference.results.at(0);  // as the cache stores it
  stored.id = -1;
  stored.kind = cls.kind;
  stored.deltaTicks = cls.deltaTicks;

  for (int threads : {1, 4}) {
    const std::string what = "threads=" + std::to_string(threads);
    core::clearProcessCaches();
    std::mutex mu;
    std::condition_variable cv;
    bool started = false;
    bool cappedOut = false;
    std::jthread helper([&] {
      mutantResultCache().getOrBuild(heldKey, [&] {
        {
          std::lock_guard<std::mutex> lock(mu);
          started = true;
        }
        cv.notify_all();
        const auto cap = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (mutantResultCache().stats().misses != classes - 1) {
          if (std::chrono::steady_clock::now() >= cap) {
            cappedOut = true;
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return stored;
      });
    });
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return started; });
    }
    const AnalysisReport r = f.analyze(threads);
    helper.join();  // (an exception above joins it on the way out)

    EXPECT_FALSE(cappedOut) << what << ": the analysis waited at the held class";
    EXPECT_TRUE(reference.sameResults(r)) << what;
    // The held class was built by the helper, so the analysis counts it as a
    // hit: one more than the cold reference, which built every class.
    EXPECT_EQ(reference.mutantCacheHits + 1, r.mutantCacheHits) << what;
    EXPECT_EQ(static_cast<std::size_t>(r.total() - r.mutantCacheHits), classes - 1) << what;
  }
  core::clearProcessCaches();
}

}  // namespace
}  // namespace xlv::analysis
