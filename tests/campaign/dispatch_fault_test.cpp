// The dispatcher's crash-recovery lock: fault-injection against the REAL
// daemon worker binary (tools/xlv_campaignd, via the XLV_CAMPAIGND_BIN
// compile definition).
//
// Each test runs the builtin "single" campaign through runDispatcher with a
// 3-worker pool of actual subprocesses, injects one fault into worker 0's
// first generation through the XLV_TEST_* hooks (SIGKILL mid-shard, hang
// without heartbeats, nonzero exit), and asserts the two halves of the
// acceptance criterion:
//
//   1. the lost unit shows up in ledger.requeuedShards with the right
//      reason, and
//   2. the merged result is CampaignResult::sameResults-bit-identical to a
//      single-process runCampaign of the same spec — the retry changed
//      nothing observable.
//
// The tests skip (not fail) when the tools were not built.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/dispatch.h"
#include "campaign/shard.h"
#include "core/flow.h"

namespace xlv::campaign {
namespace {

const char* const kFaultVars[] = {
    "XLV_TEST_DIE_AFTER_ITEMS",
    "XLV_TEST_HANG_AFTER_ITEMS",
    "XLV_TEST_EXIT_AFTER_ITEMS",
    "XLV_TEST_FAULT_WORKER",
};

/// Clears every fault hook on construction AND destruction, so a failing
/// test cannot leak a fault into its neighbors; set() arms one hook for the
/// lifetime of the guard.
struct FaultEnv {
  FaultEnv() { clear(); }
  ~FaultEnv() { clear(); }
  static void clear() {
    for (const char* v : kFaultVars) ::unsetenv(v);
  }
  void set(const char* name, const char* value) { ::setenv(name, value, 1); }
};

#ifdef XLV_CAMPAIGND_BIN

/// Single-process truth, computed once per test binary with cold caches.
const CampaignResult& referenceResult() {
  static const CampaignResult* ref = [] {
    core::clearProcessCaches();
    auto* r = new CampaignResult(runCampaign(builtinCampaignSpec("single")));
    core::clearProcessCaches();
    return r;
  }();
  return *ref;
}

DispatchOptions daemonOptions() {
  DispatchOptions opt;
  opt.workers = 3;
  // Fragment to 2 mutants per unit so a dozen-plus stealable units exist
  // and a mid-campaign kill genuinely loses work in flight.
  opt.maxFragmentMutants = 2;
  opt.workerCommand = {XLV_CAMPAIGND_BIN, "worker"};
  opt.heartbeatIntervalMs = 100;
  opt.heartbeatTimeoutMs = 5000;
  return opt;
}

#define XLV_REQUIRE_DAEMON()                                                \
  do {                                                                      \
    if (::access(XLV_CAMPAIGND_BIN, X_OK) != 0)                             \
      GTEST_SKIP() << "xlv_campaignd binary not built: " XLV_CAMPAIGND_BIN; \
  } while (0)

TEST(DispatchFault, CleanDaemonRunIsBitIdenticalToSingleProcess) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  const CampaignSpec spec = builtinCampaignSpec("single");
  const DispatchResult out = runDispatcher(spec, daemonOptions());
  EXPECT_TRUE(out.result.ok());
  EXPECT_TRUE(referenceResult().sameResults(out.result));
  EXPECT_GT(out.ledger.tasksTotal, 1u) << "fragmentation produced no stealable units";
  EXPECT_EQ(out.ledger.tasksCompleted, out.ledger.tasksTotal);
  EXPECT_EQ(out.ledger.submissions, out.ledger.tasksTotal);
  EXPECT_TRUE(out.ledger.requeuedShards.empty());
  EXPECT_EQ(out.ledger.workerRespawns, 0u);
  EXPECT_EQ(out.ledger.workersKilled, 0u);
  EXPECT_EQ(out.ledger.workersSpawned, 3u);
}

TEST(DispatchFault, SigkilledWorkerShardIsRequeuedAndMergeStaysBitIdentical) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  // Worker 0 (generation 0) raises SIGKILL on accepting its first unit —
  // the crash-mid-shard case of the ISSUE, via the documented test hook.
  env.set("XLV_TEST_DIE_AFTER_ITEMS", "0");
  const CampaignSpec spec = builtinCampaignSpec("single");
  const DispatchResult out = runDispatcher(spec, daemonOptions());

  // The lost unit is visible in the ledger...
  ASSERT_FALSE(out.ledger.requeuedShards.empty());
  const RequeueRecord& rec = out.ledger.requeuedShards.front();
  EXPECT_EQ(rec.reason, "worker-signal");
  EXPECT_EQ(rec.workerIndex, 0u);
  EXPECT_EQ(rec.generation, 0u);
  EXPECT_EQ(rec.attempt, 1u);
  EXPECT_GE(out.ledger.workerRespawns, 1u);
  EXPECT_GT(out.ledger.submissions, out.ledger.tasksTotal)
      << "a re-queued unit must be submitted again";
  EXPECT_EQ(out.ledger.tasksCompleted, out.ledger.tasksTotal);

  // ...and invisible in the result: the retry is bit-identical.
  EXPECT_TRUE(out.result.ok());
  EXPECT_TRUE(referenceResult().sameResults(out.result));
}

TEST(DispatchFault, HungWorkerHitsHeartbeatTimeoutAndItsShardIsRequeued) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  // Worker 0 accepts a unit, then goes silent (no heartbeats, no result).
  env.set("XLV_TEST_HANG_AFTER_ITEMS", "0");
  DispatchOptions opt = daemonOptions();
  // Tight liveness window so the test completes quickly; the real default
  // stays at 10 s.
  opt.heartbeatIntervalMs = 50;
  opt.heartbeatTimeoutMs = 400;
  const CampaignSpec spec = builtinCampaignSpec("single");
  const DispatchResult out = runDispatcher(spec, opt);

  ASSERT_FALSE(out.ledger.requeuedShards.empty());
  EXPECT_EQ(out.ledger.requeuedShards.front().reason, "heartbeat-timeout");
  EXPECT_GE(out.ledger.workersKilled, 1u) << "the hung worker must be SIGKILLed";
  EXPECT_GE(out.ledger.workerRespawns, 1u);
  EXPECT_EQ(out.ledger.tasksCompleted, out.ledger.tasksTotal);
  EXPECT_TRUE(out.result.ok());
  EXPECT_TRUE(referenceResult().sameResults(out.result));
}

TEST(DispatchFault, NonzeroExitWorkerShardIsRequeued) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  env.set("XLV_TEST_EXIT_AFTER_ITEMS", "0");
  const CampaignSpec spec = builtinCampaignSpec("single");
  const DispatchResult out = runDispatcher(spec, daemonOptions());

  ASSERT_FALSE(out.ledger.requeuedShards.empty());
  EXPECT_EQ(out.ledger.requeuedShards.front().reason, "worker-exit");
  EXPECT_GE(out.ledger.workerRespawns, 1u);
  EXPECT_EQ(out.ledger.tasksCompleted, out.ledger.tasksTotal);
  EXPECT_TRUE(out.result.ok());
  EXPECT_TRUE(referenceResult().sameResults(out.result));
}

TEST(DispatchFault, FaultOnALaterWorkerSlotRecoversToo) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  // Same SIGKILL hook, but aimed at worker 2 — recovery must not depend on
  // which slot dies.
  env.set("XLV_TEST_DIE_AFTER_ITEMS", "0");
  env.set("XLV_TEST_FAULT_WORKER", "2");
  const CampaignSpec spec = builtinCampaignSpec("single");
  const DispatchResult out = runDispatcher(spec, daemonOptions());

  ASSERT_FALSE(out.ledger.requeuedShards.empty());
  EXPECT_EQ(out.ledger.requeuedShards.front().workerIndex, 2u);
  EXPECT_EQ(out.ledger.requeuedShards.front().reason, "worker-signal");
  EXPECT_TRUE(out.result.ok());
  EXPECT_TRUE(referenceResult().sameResults(out.result));
}

TEST(DispatchFault, DispatcherRejectsMalformedOptions) {
  FaultEnv env;
  const CampaignSpec spec = builtinCampaignSpec("single");
  {
    DispatchOptions opt = daemonOptions();
    opt.workerCommand.clear();
    EXPECT_THROW(runDispatcher(spec, opt), std::invalid_argument);
  }
  {
    DispatchOptions opt = daemonOptions();
    opt.heartbeatTimeoutMs = 0;
    EXPECT_THROW(runDispatcher(spec, opt), std::invalid_argument);
  }
  {
    DispatchOptions opt = daemonOptions();
    opt.maxTaskAttempts = 0;
    EXPECT_THROW(runDispatcher(spec, opt), std::invalid_argument);
  }
}

TEST(DispatchFault, PoisonUnitIsBisectedAndQuarantinedInRunMode) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  // Every worker of every generation SIGKILLs itself on item 0's mutant 1.
  // Run mode shares serve mode's recovery: the [0,2) fragment is bisected
  // and the irreducible [1,2) half quarantined; the campaign completes with
  // a structured item error instead of a DispatchError.
  // FaultEnv does not clear the poison hooks, so this guard owns them.
  struct PoisonEnv {
    PoisonEnv() {
      ::setenv("XLV_TEST_POISON_ITEM", "0", 1);
      ::setenv("XLV_TEST_POISON_MUTANT", "1", 1);
    }
    ~PoisonEnv() {
      ::unsetenv("XLV_TEST_POISON_ITEM");
      ::unsetenv("XLV_TEST_POISON_MUTANT");
    }
  } poison;
  DispatchOptions opt = daemonOptions();
  opt.maxTaskAttempts = 2;
  opt.maxWorkerRespawns = 50;  // each poison hit costs one respawn
  const DispatchResult out = runDispatcher(builtinCampaignSpec("single"), opt);

  ASSERT_EQ(out.result.items.size(), 1u);
  EXPECT_NE(out.result.items[0].error.find("quarantined"), std::string::npos)
      << out.result.items[0].error;
  EXPECT_EQ(out.ledger.bisections, 1u) << "one split isolates the poison in a 2-mutant fragment";
  EXPECT_EQ(out.ledger.quarantinedUnits, 1u);
  ASSERT_EQ(out.ledger.campaigns.size(), 1u);
  EXPECT_EQ(out.ledger.campaigns.front().quarantined.size(), 1u);
  EXPECT_TRUE(out.ledger.campaigns.front().error.empty()) << out.ledger.campaigns.front().error;
  // The bisected original and the quarantined half are retired, not completed.
  EXPECT_EQ(out.ledger.tasksCompleted + 2, out.ledger.tasksTotal);
}

#else  // !XLV_CAMPAIGND_BIN

TEST(DispatchFault, DaemonBinaryUnavailable) {
  GTEST_SKIP() << "built without XLV_CAMPAIGND_BIN (tools disabled)";
}

#endif

}  // namespace
}  // namespace xlv::campaign
