// Native-codegen simulation backend vs the interpreter (ISSUE 6 tentpole).
//
// Workload: the builtin "single" campaign preset with its cycle budget
// scaled up, run once per engine under XLV_REFERENCE_SIM=1. Full replay
// makes the run simulation-dominated and gives both engines the exact same
// deterministic cycle count, so the wall-time ratio is an honest engine
// comparison rather than a measure of how much the divergence fast path
// happened to skip.
//
// The native compile is warmed OUTSIDE the timed region (compile cost is
// amortised across a campaign and cached in the artifact store; the paper's
// claim is about simulation throughput). Between legs the result/trace
// caches are cleared but the native .so cache is deliberately kept.
//
// Self-check: native results bit-identical to the interpreter's AND >= 2x
// wall-time speedup (the ISSUE 6 acceptance bar). Without a system C++
// compiler the bench prints a visible notice and reports
// native_available=0 — skipping is a recorded state, not a silent pass.
//
// It also reports native_source_bytes_single, the size of the source the
// workload's layout emits. The row is deterministic and the ratchet gates
// it lower-is-better, since the native compile time grows with it.
#include <stdlib.h>

#include <chrono>
#include <cstdio>

#include "abstraction/native_backend.h"
#include "analysis/checkpoint_cache.h"
#include "analysis/golden_cache.h"
#include "analysis/mutant_cache.h"
#include "bench/common.h"
#include "campaign/shard.h"
#include "core/flow.h"
#include "util/table.h"

namespace {

using namespace xlv;
using Clock = std::chrono::steady_clock;

/// Clear every result/trace cache WITHOUT dropping compiled native
/// libraries: the timed native leg must re-simulate from scratch but not
/// re-compile (core::clearProcessCaches would also flush the .so cache).
void clearResultCaches() {
  core::flowPrefixCache().clear();
  analysis::goldenTraceCache().clear();
  analysis::mutantResultCache().clear();
  analysis::checkpointCache().clear();
}

campaign::CampaignSpec workload(analysis::SimBackend backend) {
  campaign::CampaignSpec spec = campaign::builtinCampaignSpec("single");
  for (auto& item : spec.items) {
    item.options.testbenchCycles = bench::scaled(2000);
    item.options.backend = backend;
  }
  return spec;
}

double seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Bytes of the native source the workload's layout emits (no identity):
/// deterministic, and what the native compile time grows with.
double nativeSourceBytes() {
  const campaign::CampaignItem item = workload(analysis::SimBackend::Native).items.at(0);
  core::FlowReport r;
  core::stageElaborate(item.caseStudy, item.options, r);
  core::stageInsertion(item.caseStudy, item.options, r);
  core::stageInjection(item.caseStudy, item.options, r);
  const auto layout = abstraction::buildTlmModelLayout(
      r.injected.design, abstraction::TlmModelConfig{r.hfRatio, false}, r.injected.mutants);
  return static_cast<double>(abstraction::emitNativeCpp(*layout, true, "").size());
}

}  // namespace

int main() {
  bench::banner("Native-codegen backend vs interpreter — bit-identical, faster",
                "the simulation-throughput side of paper Section 7's campaigns");
  const double sourceBytes = nativeSourceBytes();
  std::printf("native source: %.0f bytes\n", sourceBytes);

  if (!abstraction::nativeToolchainAvailable()) {
    std::printf(
        "NOTICE: no system C++ compiler found (tried XLV_CC, c++, g++, clang++)\n"
        "        — native backend unavailable, recording native_available=0 and\n"
        "        skipping the engine comparison. The interpreter path is still\n"
        "        covered by every other bench and the test suite.\n");
    bench::writeBenchJson("campaign", {{"native_available", 0.0},
                                       {"native_source_bytes_single", sourceBytes},
                                       {"self_check_ok", 1.0}});
    return 0;
  }
  std::printf("native toolchain: %s\n\n",
              abstraction::nativeToolchainDescription().c_str());

  // Full replay in both legs: same deterministic cycle count per engine.
  ::setenv("XLV_REFERENCE_SIM", "1", 1);

  // Warm-up: compiles (and memoises) the native library for this design,
  // and touches every code path once so neither timed leg pays first-run
  // costs the other doesn't.
  clearResultCaches();
  const campaign::CampaignResult warm = campaign::runCampaign(workload(analysis::SimBackend::Native));
  bool ok = warm.ok();
  if (warm.nativeCompiles + warm.nativeCacheHits == 0) {
    std::fprintf(stderr, "FAIL: warm-up leg did no native work (compiles 0, hits 0)\n");
    ok = false;
  }

  // Timed leg 1: interpreter.
  clearResultCaches();
  const Clock::time_point i0 = Clock::now();
  const campaign::CampaignResult interp =
      campaign::runCampaign(workload(analysis::SimBackend::Interpreter));
  const double interpSeconds = seconds(i0, Clock::now());

  // Timed leg 2: native, .so served from the in-process cache.
  clearResultCaches();
  const Clock::time_point n0 = Clock::now();
  const campaign::CampaignResult native =
      campaign::runCampaign(workload(analysis::SimBackend::Native));
  const double nativeSeconds = seconds(n0, Clock::now());
  ::unsetenv("XLV_REFERENCE_SIM");

  const bool identical = interp.sameResults(native);
  const double speedup = nativeSeconds > 0.0 ? interpSeconds / nativeSeconds : 0.0;
  const std::size_t mutants =
      interp.items.empty() ? 0 : interp.items[0].report.analysis.results.size();

  util::Table t({"Engine", "Mutants", "Cycles sim", "Wall (s)", "Speedup", "Identical"});
  t.addRow({"interpreter", std::to_string(mutants),
            std::to_string(interp.cyclesSimulated), util::Table::fixed(interpSeconds, 3),
            "1.00x", "ref"});
  t.addRow({"native", std::to_string(mutants), std::to_string(native.cyclesSimulated),
            util::Table::fixed(nativeSeconds, 3), util::Table::fixed(speedup, 2) + "x",
            identical ? "yes" : "NO — BUG"});
  std::fputs(t.render().c_str(), stdout);

  if (!identical) {
    std::fprintf(stderr, "FAIL: native backend diverged from the interpreter\n");
  }
  if (speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: native speedup %.2fx below the 2x acceptance bar "
                 "(interp %.3fs, native %.3fs)\n",
                 speedup, interpSeconds, nativeSeconds);
  }
  if (native.nativeCompiles + native.nativeCacheHits == 0) {
    std::fprintf(stderr, "FAIL: timed native leg reports no native engine use\n");
  }
  ok = ok && interp.ok() && native.ok() && identical && speedup >= 2.0 &&
       native.nativeCompiles + native.nativeCacheHits > 0;

  std::printf(
      "\nExpected shape: identical \"yes\" with speedup >= 2x — the emitted\n"
      "TU flattens the scheduler sweep into straight-line compiled code, so\n"
      "per-cycle cost drops while the cycle counts (and every per-mutant\n"
      "verdict) stay bit-identical to the interpreter.\n");

  bench::writeBenchJson(
      "campaign",
      {{"native_available", 1.0},
       {"wall_seconds_interp_single", interpSeconds},
       {"wall_seconds_native_single", nativeSeconds},
       {"native_speedup_single", speedup},
       {"native_source_bytes_single", sourceBytes},
       {"cycles_simulated_single", static_cast<double>(interp.cyclesSimulated)},
       {"native_compiles", static_cast<double>(warm.nativeCompiles)},
       {"native_cache_hits",
        static_cast<double>(warm.nativeCacheHits + native.nativeCacheHits)},
       {"self_check_ok", ok ? 1.0 : 0.0}});

  if (!ok) {
    std::fprintf(stderr, "\nFAIL: native-vs-interpreter acceptance check failed\n");
    return 1;
  }
  std::printf("\nself-check: OK\n");
  return 0;
}
