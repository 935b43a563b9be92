// Campaign scaling: wall-clock behavior of the parallel mutation-campaign
// engine versus the serial per-mutant flow.
//
// Workload: the Plasma Counter campaign (the paper's largest mutant set —
// three DeltaDelay mutants per inserted sensor). The flow prefix
// (elaborate -> insertion -> abstraction -> injection) runs ONCE through the
// composable stages; only the per-mutant analysis campaign is repeated at
// increasing thread counts. The report must be identical at every thread
// count (excluding the timing fields) — verified here on every row.
//
// A second section scales the full-matrix campaign (3 IPs x 2 sensor kinds)
// across one pool shared by the items and their mutant analyses.
#include <cstring>
#include <thread>

#include "bench/common.h"
#include "campaign/campaign.h"
#include "core/flow.h"
#include "util/table.h"

namespace {

/// Everything except timing fields must match across thread counts.
bool sameResults(const xlv::analysis::AnalysisReport& a,
                 const xlv::analysis::AnalysisReport& b) {
  return a.sameResults(b);
}

}  // namespace

int main() {
  using namespace xlv;
  bench::banner("Campaign scaling — parallel mutation-campaign engine",
                "the throughput extension of paper Section 7");

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("hardware_concurrency: %d\n\n", hw);

  // --- per-mutant scaling on the Plasma Counter campaign --------------------
  ips::CaseStudy cs = ips::buildPlasmaCase();
  core::FlowOptions opts;
  opts.sensorKind = insertion::SensorKind::Counter;
  opts.testbenchCycles = bench::scaled(cs.testbench.cycles);

  core::FlowReport flow;
  core::stageElaborate(cs, opts, flow);
  core::stageInsertion(cs, opts, flow);
  core::stageAbstraction(flow);
  core::stageInjection(cs, opts, flow);
  std::printf("Plasma Counter campaign: %d sensors, %zu mutants, %llu cycles/run\n\n",
              static_cast<int>(flow.sensors.size()), flow.mutantSpecs.size(),
              static_cast<unsigned long long>(core::flowCycles(cs, opts)));

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
  bool allIdentical = true;

  util::Table t({"Threads", "Wall (s)", "Sim work (s)", "Speedup vs serial", "Identical"});
  t.addRow({"1", util::Table::fixed(serial.wallSeconds, 3),
            util::Table::fixed(serial.simSeconds, 3), "1.00x", "yes"});
  for (int threads : {2, 4, 8}) {
    const analysis::AnalysisReport r = analyzeAt(threads);
    const double speedup = r.wallSeconds > 0.0 ? serial.wallSeconds / r.wallSeconds : 0.0;
    const bool identical = sameResults(serial, r);
    allIdentical = allIdentical && identical;
    t.addRow({std::to_string(threads), util::Table::fixed(r.wallSeconds, 3),
              util::Table::fixed(r.simSeconds, 3), util::Table::fixed(speedup, 2) + "x",
              identical ? "yes" : "NO — BUG"});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf(
      "\nExpected shape: wall time shrinks toward sim/threads while sim work stays\n"
      "flat (the campaign adds no redundant work: golden trace recorded once,\n"
      "injected design compiled once, sessions cloned per task). Speedup tracks\n"
      "min(threads, cores); on a single-core host every row stays near 1x. Sim\n"
      "work is summed per-task *wall* time, so when threads exceed cores it\n"
      "inflates with timeslice waits — that is oversubscription, not redundant\n"
      "work.\n");

  // --- flow-level scaling: the full experiment matrix ------------------------
  std::printf(
      "\nFull-matrix campaign (3 IPs x 2 sensor kinds, one pool for items and mutants):\n\n");
  core::FlowOptions base;
  base.timingRepetitions = 1;
  base.measureRtl = false;  // dominate the campaign with TLM work, as in production

  bool allItemsOk = true;
  util::Table m({"Pool workers", "Wall (s)", "Sim work (s)", "Items ok"});
  for (int threads : {1, 2, 4}) {
    std::vector<ips::CaseStudy> cases = bench::allCases();
    for (auto& c : cases) c.testbench.cycles = bench::scaled(c.testbench.cycles) / 2 + 1;
    campaign::CampaignSpec spec =
        campaign::fullMatrixCampaign(cases, base, campaign::ExecutorConfig{threads});
    const campaign::CampaignResult r = campaign::runCampaign(spec);
    int ok = 0;
    for (const auto& it : r.items) ok += it.error.empty() ? 1 : 0;
    allItemsOk = allItemsOk && ok == static_cast<int>(r.items.size());
    m.addRow({std::to_string(threads), util::Table::fixed(r.wallSeconds, 3),
              util::Table::fixed(r.simSeconds, 3),
              std::to_string(ok) + "/" + std::to_string(static_cast<int>(r.items.size()))});
  }
  std::fputs(m.render().c_str(), stdout);
  std::printf(
      "\nExpected shape: wall time shrinks with pool workers. Each item's mutant\n"
      "analysis is a nested job on the same pool, so workers with no item left\n"
      "help simulate the mutants of the items still running instead of idling\n"
      "through the campaign's tail.\n");

  // Nonzero exit on a determinism or item failure so the CI smoke step
  // actually gates on it.
  if (!allIdentical || !allItemsOk) {
    std::fprintf(stderr, "\nFAILURE: %s\n",
                 !allIdentical ? "parallel report diverged from serial" : "campaign item failed");
    return 1;
  }
  return 0;
}
