// Stateful-protocol testbench case study (ROADMAP coverage item): the
// req/ack Handshake IP ships a makeDriver-only testbench — a protocol FSM
// with an incremental PRNG — so every engine of the flow must go through
// per-task seeded driver sessions. This is the end-to-end exercise of
// Testbench::makeDriver beyond the API-level tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/mutation_analysis.h"
#include "core/flow.h"
#include "ips/case_study.h"
#include "tests/reference_mode_guard.h"

namespace xlv::analysis {
namespace {

using insertion::SensorKind;

/// Replay a driver session and record every (cycle, port, value) it emits.
std::vector<std::uint64_t> replay(const DriveFn& drive, std::uint64_t cycles) {
  std::vector<std::uint64_t> log;
  for (std::uint64_t c = 0; c < cycles; ++c) {
    drive(c, [&](const std::string& name, std::uint64_t v) {
      log.push_back(c * 1000003ULL + std::hash<std::string>{}(name) % 997ULL * 31ULL + v);
    });
  }
  return log;
}

TEST(StatefulTestbench, DriverSessionsReplayBySeedAndDivergeAcrossSeeds) {
  const ips::CaseStudy cs = ips::buildHandshakeCase();
  ASSERT_TRUE(cs.testbench.makeDriver);
  ASSERT_FALSE(cs.testbench.drive);  // makeDriver-only by design

  // Same stimulus id -> fresh sessions, identical replayed inputs.
  EXPECT_EQ(replay(cs.testbench.driverForTask(0), 200),
            replay(cs.testbench.driverForTask(0), 200));
  // Different stimulus ids -> different traffic shapes (seeded PRNG).
  EXPECT_NE(replay(cs.testbench.driverForTask(0), 200),
            replay(cs.testbench.driverForTask(1), 200));
}

TEST(StatefulTestbench, HandshakeProtocolReachesAckAndProgressesState) {
  // Simulate the clean design directly and check the protocol actually
  // cycles: ack rises, drops after req release, and the checksum moves.
  const ips::CaseStudy cs = ips::buildHandshakeCase();
  core::FlowOptions opts;
  core::FlowReport flow;
  core::stageElaborate(cs, opts, flow);

  abstraction::TlmIpModel<hdt::FourState> model(flow.cleanDesign,
                                                abstraction::TlmModelConfig{0, false});
  const DriveFn drive = cs.testbench.driverForTask(0);
  const ir::SymbolId ackSym = flow.cleanDesign.findSymbol("ack");
  const ir::SymbolId chkSym = flow.cleanDesign.findSymbol("checksum");
  ASSERT_NE(ir::kNoSymbol, ackSym);
  ASSERT_NE(ir::kNoSymbol, chkSym);

  int ackRises = 0, ackFalls = 0;
  std::uint64_t lastAck = 0;
  std::map<std::uint64_t, int> checksums;
  for (std::uint64_t c = 0; c < 400; ++c) {
    drive(c, [&](const std::string& name, std::uint64_t v) { model.setInputByName(name, v); });
    model.scheduler();
    const std::uint64_t a = model.valueUint(ackSym);
    ackRises += (a == 1 && lastAck == 0) ? 1 : 0;
    ackFalls += (a == 0 && lastAck == 1) ? 1 : 0;
    lastAck = a;
    ++checksums[model.valueUint(chkSym)];
  }
  EXPECT_GE(ackRises, 10) << "handshake should complete many transactions in 400 cycles";
  EXPECT_GE(ackFalls, 10) << "four-phase release must drop ack after req";
  EXPECT_GE(checksums.size(), 5u) << "each transaction should perturb the checksum";
}

TEST(StatefulTestbench, EndToEndMutationAnalysisRazor) {
  ips::CaseStudy cs = ips::buildHandshakeCase();
  core::FlowOptions opts;
  opts.sensorKind = SensorKind::Razor;
  opts.analysisThreads = 2;
  opts.measureRtl = false;
  opts.measureOptimized = false;

  const core::FlowReport r = core::runFlow(cs, opts);
  ASSERT_GT(r.sensors.size(), 0u) << "STA must bin the MAC endpoints critical";
  ASSERT_GT(r.analysis.total(), 0);
  // The random traffic exercises every monitored endpoint: the full mutant
  // set is killed and every sensor observes its delay.
  EXPECT_DOUBLE_EQ(100.0, r.analysis.killedPct());
  EXPECT_EQ(r.analysis.total(), r.analysis.countDetected());

  // Thread-count invariance holds for the stateful testbench too (per-task
  // sessions replay the same stimulus at any thread count).
  analysis::Testbench tb = cs.testbench;
  tb.cycles = core::flowCycles(cs, opts);
  AnalysisConfig acfg;
  acfg.sensorKind = opts.sensorKind;
  acfg.hfRatio = r.hfRatio;
  acfg.threads = 1;
  const AnalysisReport serial = analyzeMutations<hdt::FourState>(
      r.augmentedDesign, r.injected, r.sensors, tb, acfg);
  acfg.threads = 8;
  const AnalysisReport parallel = analyzeMutations<hdt::FourState>(
      r.augmentedDesign, r.injected, r.sensors, tb, acfg);
  ASSERT_EQ(serial.results.size(), parallel.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].killed, parallel.results[i].killed) << i;
    EXPECT_EQ(serial.results[i].detected, parallel.results[i].detected) << i;
    EXPECT_EQ(serial.results[i].errorRisen, parallel.results[i].errorRisen) << i;
    EXPECT_EQ(serial.results[i].measuredDelay, parallel.results[i].measuredDelay) << i;
  }
}

TEST(StatefulTestbench, EndToEndMutationAnalysisCounter) {
  ips::CaseStudy cs = ips::buildHandshakeCase();
  core::FlowOptions opts;
  opts.sensorKind = SensorKind::Counter;
  opts.measureRtl = false;
  opts.measureOptimized = false;

  const core::FlowReport r = core::runFlow(cs, opts);
  ASSERT_GT(r.sensors.size(), 0u);
  ASSERT_GT(r.analysis.total(), 0);
  EXPECT_GT(r.analysis.countDetected(), 0)
      << "counter sensors must measure delays under handshake traffic";
  EXPECT_GT(r.analysis.killedPct(), 0.0);
}

TEST(StatefulTestbench, ACheckpointRecordingThatThrowsIsRetriedByTheNextCall) {
  // The checkpoint recording is a context's second driver instance (the
  // golden recording is the first). When that instance throws, the
  // simulateMutant that needed the checkpoints rethrows and nothing is
  // kept: the next call records them and returns what a fresh context
  // returns. Filter's late-active endpoints fast-forward past the first
  // checkpoint; its pure driver is served through makeDriver.
  ReferenceModeGuard fastPath(false);
  const ips::CaseStudy cs = ips::buildFilterCase();
  core::FlowOptions opts;
  opts.sensorKind = SensorKind::Razor;
  opts.testbenchCycles = 400;
  opts.measureRtl = false;
  opts.measureTlm = false;
  opts.measureOptimized = false;
  const core::FlowReport r = core::runFlow(cs, opts);
  Testbench tb = cs.testbench;
  tb.cycles = core::flowCycles(cs, opts);
  AnalysisConfig cfg;
  cfg.sensorKind = opts.sensorKind;
  cfg.hfRatio = r.hfRatio;

  auto instances = std::make_shared<std::atomic<int>>(0);
  Testbench flaky = tb;
  flaky.drive = nullptr;
  flaky.makeDriver = [drive = tb.drive, instances](std::uint64_t) {
    if (instances->fetch_add(1) == 1) throw std::runtime_error("driver session refused");
    return drive;
  };
  const MutationCampaignContext ctx = prepareMutationCampaign<hdt::FourState>(
      r.augmentedDesign, r.injected, r.sensors, flaky, cfg);
  ASSERT_EQ(1, instances->load());

  // A mutant whose fast-forward limit reaches the first checkpoint.
  int mutant = -1;
  for (std::size_t m = 0; m < ctx.layout->mutants.size() && mutant < 0; ++m) {
    for (std::size_t i = 0; i < ctx.sensors.size(); ++i) {
      const std::uint64_t limit = ctx.gold->firstActivity[i];
      if (ctx.sensors[i].endpointName == ctx.layout->mutants[m].spec.targetSignal &&
          limit >= ctx.checkpointInterval && limit < tb.cycles) {
        mutant = static_cast<int>(m);
      }
    }
  }
  ASSERT_GE(mutant, 0) << "no mutant fast-forwards past the first checkpoint";

  EXPECT_THROW(simulateMutant<hdt::FourState>(ctx, mutant), std::runtime_error);
  EXPECT_FALSE(ctx.checkpoints->recorded.load());
  EXPECT_EQ(nullptr, ctx.checkpoints->rec);
  const MutantResult retried = simulateMutant<hdt::FourState>(ctx, mutant);
  EXPECT_TRUE(ctx.checkpoints->recorded.load());
  ASSERT_NE(nullptr, ctx.checkpoints->rec);

  const MutationCampaignContext fresh = prepareMutationCampaign<hdt::FourState>(
      r.augmentedDesign, r.injected, r.sensors, tb, cfg);
  EXPECT_EQ(simulateMutant<hdt::FourState>(fresh, mutant), retried);
}

}  // namespace
}  // namespace xlv::analysis
