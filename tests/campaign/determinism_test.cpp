// Campaign determinism: the parallel mutation-campaign engine must produce
// a report identical to the serial path (excluding timing fields) at any
// thread count, and the campaign layer must merge item results in task-id
// order with per-item failure capture.
#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "core/flow.h"

namespace xlv::campaign {
namespace {

using insertion::SensorKind;

void expectSameReport(const analysis::AnalysisReport& a, const analysis::AnalysisReport& b,
                      const char* what) {
  ASSERT_EQ(a.results.size(), b.results.size()) << what;
  EXPECT_EQ(a.cyclesPerRun, b.cyclesPerRun) << what;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const auto& x = a.results[i];
    const auto& y = b.results[i];
    EXPECT_EQ(x.id, y.id) << what << " mutant " << i;
    EXPECT_EQ(x.endpoint, y.endpoint) << what << " mutant " << i;
    EXPECT_EQ(x.kind, y.kind) << what << " mutant " << i;
    EXPECT_EQ(x.deltaTicks, y.deltaTicks) << what << " mutant " << i;
    EXPECT_EQ(x.killed, y.killed) << what << " mutant " << i;
    EXPECT_EQ(x.detected, y.detected) << what << " mutant " << i;
    EXPECT_EQ(x.errorRisen, y.errorRisen) << what << " mutant " << i;
    EXPECT_EQ(x.corrected, y.corrected) << what << " mutant " << i;
    EXPECT_EQ(x.correctionChecked, y.correctionChecked) << what << " mutant " << i;
    EXPECT_EQ(x.measuredDelay, y.measuredDelay) << what << " mutant " << i;
  }
}

class ThreadCountP : public ::testing::TestWithParam<int> {};

TEST_P(ThreadCountP, DspRazorCampaignIsThreadCountInvariant) {
  ips::CaseStudy cs = ips::buildDspCase();
  core::FlowOptions opts;
  opts.sensorKind = SensorKind::Razor;
  opts.testbenchCycles = 120;

  core::FlowReport flow;
  core::stageElaborate(cs, opts, flow);
  core::stageInsertion(cs, opts, flow);
  core::stageInjection(cs, opts, flow);
  ASSERT_GT(flow.mutantSpecs.size(), 1u);

  analysis::Testbench tb = cs.testbench;
  tb.cycles = core::flowCycles(cs, opts);

  auto analyzeAt = [&](int threads) {
    analysis::AnalysisConfig acfg;
    acfg.hfRatio = flow.hfRatio;
    acfg.sensorKind = opts.sensorKind;
    acfg.threads = threads;
    return analysis::analyzeMutations<hdt::FourState>(flow.augmentedDesign, flow.injected,
                                                      flow.sensors, tb, acfg);
  };

  const analysis::AnalysisReport serial = analyzeAt(1);
  EXPECT_EQ(1, serial.threadsUsed);
  EXPECT_DOUBLE_EQ(100.0, serial.killedPct());

  const analysis::AnalysisReport parallel = analyzeAt(GetParam());
  expectSameReport(serial, parallel, "DSP Razor");
  EXPECT_GT(parallel.simSeconds, 0.0);
  EXPECT_GT(parallel.wallSeconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCountP, ::testing::Values(1, 2, 8));

TEST(Campaign, CounterCampaignIsThreadCountInvariant) {
  // The dual-clock scheduler exercises the DeltaDelay phases; make sure the
  // shared-layout session cloning preserves them too.
  ips::CaseStudy cs = ips::buildDspCase();
  core::FlowOptions opts;
  opts.sensorKind = SensorKind::Counter;
  opts.testbenchCycles = 100;

  core::FlowReport flow;
  core::stageElaborate(cs, opts, flow);
  core::stageInsertion(cs, opts, flow);
  core::stageInjection(cs, opts, flow);

  analysis::Testbench tb = cs.testbench;
  tb.cycles = core::flowCycles(cs, opts);
  analysis::AnalysisConfig acfg;
  acfg.hfRatio = flow.hfRatio;
  acfg.sensorKind = opts.sensorKind;

  acfg.threads = 1;
  const analysis::AnalysisReport serial = analysis::analyzeMutations<hdt::FourState>(
      flow.augmentedDesign, flow.injected, flow.sensors, tb, acfg);
  acfg.threads = 4;
  const analysis::AnalysisReport parallel = analysis::analyzeMutations<hdt::FourState>(
      flow.augmentedDesign, flow.injected, flow.sensors, tb, acfg);
  expectSameReport(serial, parallel, "DSP Counter");
}

TEST(Campaign, MergesItemsInTaskIdOrder) {
  core::FlowOptions base;
  base.testbenchCycles = 60;
  base.measureRtl = false;
  base.measureOptimized = false;

  CampaignSpec spec;
  spec.name = "order-test";
  spec.executor = ExecutorConfig{4};
  std::vector<ips::CaseStudy> cases = {ips::buildFilterCase(), ips::buildDspCase()};
  for (const auto& cs : cases) {
    CampaignItem item;
    item.caseStudy = cs;
    item.options = base;
    item.options.analysisThreads = 1;
    spec.items.push_back(std::move(item));
  }

  const CampaignResult r = runCampaign(spec);
  ASSERT_EQ(2u, r.items.size());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(0u, r.items[0].taskId);
  EXPECT_EQ(1u, r.items[1].taskId);
  EXPECT_EQ(cases[0].name, r.items[0].report.ipName);
  EXPECT_EQ(cases[1].name, r.items[1].report.ipName);
  EXPECT_NE(nullptr, r.find(cases[0].name + "/razor"));
  EXPECT_GE(r.simSeconds, 0.0);
  EXPECT_GT(r.wallSeconds, 0.0);
}

TEST(Campaign, CapturesItemFailuresWithoutAbortingTheBatch) {
  CampaignSpec spec;
  spec.executor = ExecutorConfig{2};

  CampaignItem good;
  good.caseStudy = ips::buildFilterCase();
  good.options.testbenchCycles = 40;
  good.options.measureRtl = false;
  good.options.measureOptimized = false;
  good.options.runMutationAnalysis = false;

  CampaignItem bad = good;
  bad.caseStudy.module = nullptr;  // elaboration will throw
  bad.label = "broken";

  spec.items.push_back(bad);
  spec.items.push_back(good);

  const CampaignResult r = runCampaign(spec);
  ASSERT_EQ(2u, r.items.size());
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.items[0].error.empty());
  EXPECT_TRUE(r.items[1].error.empty());
  EXPECT_EQ(ips::buildFilterCase().name, r.items[1].report.ipName);
}

TEST(Campaign, FullMatrixSpansCasesTimesKinds) {
  std::vector<ips::CaseStudy> cases = {ips::buildFilterCase(), ips::buildDspCase()};
  core::FlowOptions base;
  base.analysisThreads = 0;
  const CampaignSpec spec = fullMatrixCampaign(cases, base, ExecutorConfig{4});
  ASSERT_EQ(4u, spec.items.size());
  EXPECT_EQ(SensorKind::Razor, spec.items[0].options.sensorKind);
  EXPECT_EQ(SensorKind::Counter, spec.items[1].options.sensorKind);
}

TEST(Campaign, OneItemCampaignSpreadsItsMutantsOverThePool) {
  // One item on four threads: the item's mutation analysis runs as a
  // nested job on the campaign's pool, so the workers with no item of
  // their own simulate its mutants — with results identical to one thread.
  CampaignItem item;
  item.caseStudy = ips::buildDspCase();
  item.options.sensorKind = SensorKind::Razor;
  item.options.testbenchCycles = 120;
  item.options.measureRtl = false;
  item.options.measureOptimized = false;
  CampaignSpec spec;
  spec.items.push_back(item);

  spec.executor = ExecutorConfig{1};
  const CampaignResult serial = runCampaign(spec);
  spec.executor = ExecutorConfig{4};
  const CampaignResult pooled = runCampaign(spec);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(pooled.ok());
  ASSERT_GT(serial.items[0].report.analysis.total(), 1);
  EXPECT_TRUE(pooled.sameResults(serial));
  EXPECT_EQ(1, serial.items[0].report.analysis.threadsUsed);
  EXPECT_GT(pooled.items[0].report.analysis.threadsUsed, 1);
}

TEST(Flow, MakeDriverOnlyTestbenchWorksEndToEnd) {
  // A stateful testbench per the Testbench contract: no shared drive at
  // all, only a per-session factory. Every engine of the flow (RTL timing,
  // TLM timing, injected model, mutation campaign) must still run.
  ips::CaseStudy cs = ips::buildFilterCase();
  const analysis::DriveFn pure = cs.testbench.drive;
  cs.testbench.drive = nullptr;
  cs.testbench.makeDriver = [pure](std::uint64_t) { return pure; };

  core::FlowOptions opts;
  opts.testbenchCycles = 120;
  opts.analysisThreads = 2;
  const core::FlowReport r = core::runFlow(cs, opts);
  EXPECT_DOUBLE_EQ(100.0, r.analysis.killedPct());
  EXPECT_GT(r.timings.rtlSeconds, 0.0);
  EXPECT_GT(r.timings.tlmSeconds, 0.0);
}

TEST(Flow, AnalysisThreadsOptionFlowsThrough) {
  ips::CaseStudy cs = ips::buildFilterCase();
  core::FlowOptions opts;
  opts.testbenchCycles = 120;  // budget for every mutant to propagate (cf. flow_test)
  opts.measureRtl = false;
  opts.measureOptimized = false;
  opts.analysisThreads = 2;
  const core::FlowReport r = core::runFlow(cs, opts);
  EXPECT_GE(r.analysis.threadsUsed, 1);
  EXPECT_LE(r.analysis.threadsUsed, 2);
  EXPECT_DOUBLE_EQ(100.0, r.analysis.killedPct());
}

}  // namespace
}  // namespace xlv::campaign
