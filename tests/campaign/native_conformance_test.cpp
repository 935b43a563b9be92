// Native-codegen backend conformance: simulating through the compiled
// engine (abstraction/native_backend.h, FlowOptions::backend = Native) must
// be sameResults-bit-identical to the interpreter — across thread counts,
// across dispatch units run as separate worker processes, with a warm
// artifact store, for stateful (makeDriver) testbenches, and under
// XLV_REFERENCE_SIM=1 full replay.
// Mutant batching (FlowOptions::batch = K) is the second axis: any K must
// reproduce the K=1 results exactly, on either engine.
//
// Every test is gated on a system C++ compiler being present; without one
// the native path deliberately falls back to the interpreter, which would
// make these checks vacuous.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "abstraction/native_backend.h"
#include "campaign/serialize.h"
#include "campaign/shard.h"
#include "core/flow.h"
#include "ips/case_study.h"
#include "tests/reference_mode_guard.h"
#include "util/artifact_store.h"
#include "unit_runner.h"

namespace xlv::campaign {
namespace {

namespace fs = std::filesystem;

#define REQUIRE_NATIVE_TOOLCHAIN()                                            \
  if (!abstraction::nativeToolchainAvailable()) {                             \
    GTEST_SKIP() << "no system C++ compiler — native backend unavailable";    \
  }

void freshProcess() { core::clearProcessCaches(); }

CampaignSpec smokeSpec(analysis::SimBackend backend, int threads = 1) {
  CampaignSpec spec = builtinCampaignSpec("smoke");
  for (auto& item : spec.items) {
    item.options.testbenchCycles = 60;
    item.options.backend = backend;
  }
  spec.executor.threads = threads;
  return spec;
}

CampaignResult runCold(const CampaignSpec& spec) {
  freshProcess();
  return runCampaign(spec);
}

/// A native-backend result is only meaningful when the native engine was
/// actually used (the silent-fallback path would make bit-identity vacuous).
void expectNativeWork(const CampaignResult& r) {
  EXPECT_GT(r.nativeCompiles + r.nativeCacheHits, 0)
      << "native run reports no compiles and no cache hits — fell back?";
}

TEST(NativeConformance, MatchesInterpreterAcrossThreadCounts) {
  REQUIRE_NATIVE_TOOLCHAIN();
  const CampaignResult interp = runCold(smokeSpec(analysis::SimBackend::Interpreter));
  ASSERT_TRUE(interp.ok());
  EXPECT_EQ(0, interp.nativeCompiles + interp.nativeCacheHits);

  for (int threads : {1, 2, 8}) {
    const CampaignResult native =
        runCold(smokeSpec(analysis::SimBackend::Native, threads));
    ASSERT_TRUE(native.ok());
    expectNativeWork(native);
    EXPECT_TRUE(interp.sameResults(native))
        << "native backend diverged from interpreter at threads=" << threads;
  }
}

TEST(NativeConformance, MatchesReferenceFullReplay) {
  REQUIRE_NATIVE_TOOLCHAIN();
  // Under XLV_REFERENCE_SIM=1 neither engine skips anything, so even the
  // cycle ledgers must agree — the strictest cross-engine comparison.
  CampaignResult interp, native;
  {
    ReferenceModeGuard reference(true);
    interp = runCold(smokeSpec(analysis::SimBackend::Interpreter));
    native = runCold(smokeSpec(analysis::SimBackend::Native));
  }
  freshProcess();

  ASSERT_TRUE(interp.ok());
  ASSERT_TRUE(native.ok());
  expectNativeWork(native);
  EXPECT_TRUE(interp.sameResults(native));
  EXPECT_EQ(0u, interp.cyclesSkipped);
  EXPECT_EQ(0u, native.cyclesSkipped);
  EXPECT_EQ(interp.cyclesSimulated, native.cyclesSimulated);
}

TEST(NativeConformance, ThreeWayShardedNativeMatchesInterpreter) {
  REQUIRE_NATIVE_TOOLCHAIN();
  const CampaignResult interp = runCold(smokeSpec(analysis::SimBackend::Interpreter));
  ASSERT_TRUE(interp.ok());

  // Each dispatch unit runs like a separate worker process: cold in-memory
  // caches (so each re-compiles or re-loads its own native library), wire
  // codecs in between — the backend/batch options must survive the codec.
  const CampaignSpec spec = smokeSpec(analysis::SimBackend::Native);
  const CampaignResult merged = runAndMergeUnits(spec, 0);
  ASSERT_TRUE(merged.ok());
  expectNativeWork(merged);
  EXPECT_TRUE(interp.sameResults(merged));
}

TEST(NativeConformance, WarmStoreServesNativeResultsAndStaysIdentical) {
  REQUIRE_NATIVE_TOOLCHAIN();
  const fs::path dir =
      fs::temp_directory_path() / ("xlv-nativeconf-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const CampaignSpec spec = smokeSpec(analysis::SimBackend::Native);
  const CampaignResult interp = runCold(smokeSpec(analysis::SimBackend::Interpreter));
  ASSERT_TRUE(interp.ok());

  util::configureProcessArtifactStore(util::ArtifactStoreConfig{dir.string(), 0});
  const CampaignResult cold = runCold(spec);
  const CampaignResult warm = runCold(spec);  // fresh memory caches, warm store
  util::configureProcessArtifactStore(std::nullopt);
  freshProcess();
  std::error_code ec;
  fs::remove_all(dir, ec);

  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  expectNativeWork(cold);
  EXPECT_TRUE(interp.sameResults(cold));
  EXPECT_TRUE(interp.sameResults(warm));
  // The warm pass reloads every mutant verdict from the store, so no
  // simulation runs — and the native engine is never even invoked (the
  // compiled .so itself is also store-cached, but nothing asks for it).
  EXPECT_GT(warm.mutantCacheHits, 0);
  EXPECT_EQ(0u, warm.cyclesSimulated);
  EXPECT_EQ(0u, warm.cyclesSkipped);
}

TEST(NativeConformance, StatefulTestbenchDriverMatchesInterpreter) {
  REQUIRE_NATIVE_TOOLCHAIN();
  // The handshake case drives the DUT from a per-task protocol-FSM driver
  // (Testbench::makeDriver): the native session must observe the same
  // recorded input stream, including the null-sink prefix replay after a
  // checkpoint fast-forward. Both sensor kinds, flow level.
  for (insertion::SensorKind kind :
       {insertion::SensorKind::Razor, insertion::SensorKind::Counter}) {
    core::FlowOptions opts;
    opts.sensorKind = kind;
    opts.testbenchCycles = 96;
    opts.measureRtl = false;
    opts.measureTlm = false;
    opts.measureOptimized = false;

    freshProcess();
    opts.backend = analysis::SimBackend::Interpreter;
    const core::FlowReport interp = core::runFlow(ips::buildHandshakeCase(), opts);
    freshProcess();
    opts.backend = analysis::SimBackend::Native;
    const core::FlowReport native = core::runFlow(ips::buildHandshakeCase(), opts);

    EXPECT_TRUE(interp.analysis.sameResults(native.analysis))
        << "stateful-driver native run diverged (" << insertion::sensorKindName(kind)
        << ")";
    EXPECT_GT(native.analysis.nativeCompiles + native.analysis.nativeCacheHits, 0);
  }
  freshProcess();
}

TEST(NativeConformance, BatchSizesReproduceUnbatchedResults) {
  // Batching is engine-independent, so this case runs even without a
  // toolchain (interpreter legs) — the native legs are gated inside.
  auto spec = [](analysis::SimBackend backend, int batch) {
    CampaignSpec s = smokeSpec(backend);
    for (auto& item : s.items) item.options.batch = batch;
    return s;
  };

  const CampaignResult solo = runCold(spec(analysis::SimBackend::Interpreter, 1));
  ASSERT_TRUE(solo.ok());
  EXPECT_EQ(0, solo.batchedMutants);

  for (int k : {4, 64}) {
    const CampaignResult batched = runCold(spec(analysis::SimBackend::Interpreter, k));
    ASSERT_TRUE(batched.ok());
    EXPECT_TRUE(solo.sameResults(batched)) << "interpreter batch=" << k;
    EXPECT_GT(batched.batchedMutants, 0) << "batch=" << k << " grouped nothing";
  }

  if (!abstraction::nativeToolchainAvailable()) {
    GTEST_SKIP() << "no system C++ compiler — native batching legs skipped";
  }
  for (int k : {1, 4, 64}) {
    const CampaignResult batched = runCold(spec(analysis::SimBackend::Native, k));
    ASSERT_TRUE(batched.ok());
    expectNativeWork(batched);
    EXPECT_TRUE(solo.sameResults(batched)) << "native batch=" << k;
  }
}

TEST(NativeConformance, ColdNativeFlowCompilesOneLibrary) {
  REQUIRE_NATIVE_TOOLCHAIN();
  // One layout per flow: the golden trace records on the injected layout
  // with no mutant active, so the golden recording, the checkpoints and
  // every mutant share the one library compiled for it.
  core::FlowOptions opts;
  opts.sensorKind = insertion::SensorKind::Counter;
  opts.testbenchCycles = 60;
  opts.measureRtl = false;
  opts.measureTlm = false;
  opts.measureOptimized = false;
  opts.backend = analysis::SimBackend::Native;
  freshProcess();
  const core::FlowReport cold = core::runFlow(ips::buildFilterCase(), opts);
  freshProcess();
  EXPECT_EQ(1, cold.analysis.nativeCompiles);
  EXPECT_EQ(0, cold.analysis.nativeCacheHits);
}

}  // namespace
}  // namespace xlv::campaign
