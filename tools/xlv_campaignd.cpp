// xlv_campaignd — campaign worker pool (campaign/dispatch.h) behind one
// event loop (campaign/server.h), in two modes.
//
// The daemon is how a campaign runs across processes, and it owns the whole
// loop: it splits each spec into stealable units (whole items and
// mutant-range fragments, campaign/shard.h), spawns a pool of worker
// subprocesses of ITSELF (the internal `worker` subcommand), schedules by
// work-stealing — an idle worker claims the heaviest queued unit, which
// arrives with its item in the submit frame on the worker's stdin, so the
// daemon writes nothing to the temp directory — and
// merges the unit results into one CampaignResult that is bit-identical
// (sameResults) to the single-process run. A worker that crashes, exits or
// goes silent past the heartbeat timeout is SIGKILLed/reaped and its unit
// re-queued; the retry is safe because unit results are bit-identical by
// construction. A unit that exhausts its attempt budget is bisected down to
// the poison mutant, which is quarantined with a structured per-item error.
//
// `run` is one in-process campaign on that loop, with no socket:
//
//   xlv_campaign spec --preset single -o spec.xlv
//   xlv_campaignd run --spec spec.xlv --workers 3 --max-fragment 2 \
//                     --ledger ledger.json -o daemon.xlv
//   xlv_campaign run --spec spec.xlv -o single.xlv
//   xlv_campaign diff single.xlv daemon.xlv     # exit 0 iff identical
//
// `serve` adds a listener on a Unix-domain socket (or loopback TCP): many
// clients submit campaigns concurrently (`xlv_campaign submit --socket
// ...`), units are scheduled round-robin-fair across campaigns and
// heaviest-first within one, results stream back per unit, and a bounded
// admission queue answers overload with a structured reject instead of
// buffering without limit:
//
//   xlv_campaignd serve --socket /tmp/xlv.sock --workers 3 \
//                       --max-campaigns-served 3 --ledger serve_ledger.json
//
// Workers accept the same --cache-dir/--cache-max-bytes flags as
// xlv_campaign run, so the pool shares ONE artifact store: the first worker
// to finish a golden trace or flow prefix stores it, the others load it.
//
// Flags: one table (parseArgs) lists every flag once with the subcommands
// that read it. A flag its subcommand does not read (`worker --workers 9`,
// `run --socket P`) is a usage error, like an unknown flag, a missing value
// or a malformed number.
//
// Env knobs (all strict — a malformed value aborts with a message, it never
// silently runs with a default): XLV_WORKERS (pool size when --workers is
// absent), XLV_HEARTBEAT_MS / XLV_HEARTBEAT_TIMEOUT_MS (defaults for the
// corresponding flags). Fault-injection hooks for the test harness
// (XLV_TEST_DIE_AFTER_ITEMS / XLV_TEST_HANG_AFTER_ITEMS /
// XLV_TEST_EXIT_AFTER_ITEMS, scoped by XLV_TEST_FAULT_WORKER to one
// worker's generation 0; XLV_TEST_POISON_ITEM / XLV_TEST_POISON_MUTANT for
// every worker) are documented in campaign/dispatch.h.
//
// Exit codes: 0 success, 1 usage or runtime error, 3 campaign completed but
// one or more items errored or were quarantined (the merged output is
// still written), 6 the worker pool could not be spawned or was lost. The
// internal worker subcommand exits 0 on clean shutdown and nonzero on
// protocol errors (see campaign/dispatch.h and the campaign README).
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/dispatch.h"
#include "campaign/serialize.h"
#include "campaign/server.h"
#include "campaign/shard.h"
#include "util/artifact_store.h"
#include "util/cli.h"
#include "util/env.h"
#include "util/fault_point.h"
#include "util/log.h"

namespace {

using namespace xlv;

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "xlv_campaignd: %s\n\n", error);
  std::fputs(
      "usage:\n"
      "  xlv_campaignd run --spec FILE [pool flags] [--ledger FILE] [-o FILE]\n"
      "  xlv_campaignd serve (--socket PATH | --tcp-port P) [pool flags]\n"
      "                    [--max-pending-units N] [--max-campaigns N]\n"
      "                    [--max-campaigns-served N] [--retry-after-ms N]\n"
      "                    [--max-client-frame-bytes N]\n"
      "                    [--client-read-timeout-ms N] [--ledger FILE]\n"
      "  xlv_campaignd worker --index I --generation G --heartbeat-ms N\n"
      "                       [cache flags]   (internal)\n"
      "pool flags: [--workers N] [--max-fragment M] [--heartbeat-ms N]\n"
      "            [--heartbeat-timeout-ms N] [--max-attempts N]\n"
      "            [--max-respawns N] [cache flags] [--verbose]\n"
      "cache flags: [--cache-dir DIR] [--cache-max-bytes N]\n"
      "\n"
      "Both modes run campaigns on one worker pool with work-stealing\n"
      "scheduling and crash-recovery re-queue; a merged result is\n"
      "bit-identical to a single-process `xlv_campaign run`. --max-fragment M\n"
      "splits items into mutant-range fragments of at most M mutants — the\n"
      "stealable unit size. A unit that exhausts --max-attempts does not\n"
      "fail its campaign: multi-mutant fragments are bisected to isolate the\n"
      "poison mutant and the irreducible unit is quarantined with a\n"
      "structured per-item error. --ledger writes the scheduling ledger\n"
      "(submissions, re-queues, quarantines, per-campaign entries) as JSON.\n"
      "\n"
      "run executes one campaign in process (no socket) and writes the merged\n"
      "result (-o, default stdout); it exits 3 when items errored or were\n"
      "quarantined, 6 when the worker pool could not be spawned or was lost.\n"
      "\n"
      "serve accepts campaign submissions from many concurrent clients\n"
      "(`xlv_campaign submit`) on a Unix-domain socket (--socket) or\n"
      "loopback TCP port (--tcp-port): round-robin-fair across campaigns,\n"
      "heaviest-first within one, bounded admission (--max-pending-units/\n"
      "--max-campaigns; overload is answered with a structured reject\n"
      "carrying --retry-after-ms). A dying client's campaign is cancelled.\n"
      "--max-campaigns-served stops the server after that many campaigns\n"
      "finished (0 = serve forever). SIGTERM/SIGINT drain the server:\n"
      "in-flight campaigns finish, new submissions are rejected with a retry\n"
      "hint, then it exits 0 (a second signal stops immediately).\n"
      "--max-client-frame-bytes caps untrusted client frames (default 16\n"
      "MiB, structured reject); --client-read-timeout-ms closes half-open\n"
      "clients that never complete a submission (default 30000, 0 = off).\n"
      "\n"
      "--cache-dir is forwarded to every worker, so the pool shares one\n"
      "artifact store. XLV_WORKERS sets the pool size when --workers is\n"
      "absent; XLV_HEARTBEAT_MS / XLV_HEARTBEAT_TIMEOUT_MS set the flag\n"
      "defaults (strict parses: a malformed value aborts). XLV_FAULTS arms\n"
      "deterministic chaos injection (util/fault_point.h grammar).\n",
      stderr);
  std::exit(1);
}

struct Args {
  std::string spec, out, ledger, cacheDir, socket;
  long workers = 0, maxFragment = 0, index = -1, generation = -1;
  long heartbeatMs = 0, heartbeatTimeoutMs = 0, maxAttempts = 0, maxRespawns = -1;
  long cacheMaxBytes = 0;
  long tcpPort = 0, maxPendingUnits = 0, maxCampaigns = 0, maxCampaignsServed = 0;
  long retryAfterMs = -1;
  long maxClientFrameBytes = 0, clientReadTimeoutMs = -1;
  bool verbose = false;
};

/// The flag table: each flag once, with the subcommands that read it. The
/// pool flags are read by run and serve; a worker reads the cache flags and
/// the coordinates the pool appends to its command.
Args parseArgs(const std::string& cmd, const std::vector<std::string>& argv) {
  Args a;
  const std::vector<std::string_view> runServe = {"run", "serve"};
  const std::vector<std::string_view> runServeWorker = {"run", "serve", "worker"};
  const std::vector<util::Flag> flags = {
      {{"--spec"}, &a.spec, {"run"}},
      {{"-o", "--out"}, &a.out, {"run"}},
      {{"--ledger"}, &a.ledger, runServe},
      {{"--workers"}, &a.workers, runServe, 0, INT_MAX},
      {{"--max-fragment"}, &a.maxFragment, runServe, 0},
      {{"--heartbeat-ms"}, &a.heartbeatMs, runServeWorker, 0, INT_MAX},
      {{"--heartbeat-timeout-ms"}, &a.heartbeatTimeoutMs, runServe, 0, INT_MAX},
      {{"--max-attempts"}, &a.maxAttempts, runServe, 0, INT_MAX},
      {{"--max-respawns"}, &a.maxRespawns, runServe, 0, INT_MAX},
      {{"--cache-dir"}, &a.cacheDir, runServeWorker},
      {{"--cache-max-bytes"}, &a.cacheMaxBytes, runServeWorker, 0},
      {{"--socket"}, &a.socket, {"serve"}},
      {{"--tcp-port"}, &a.tcpPort, {"serve"}, 0, 65535},
      {{"--max-pending-units"}, &a.maxPendingUnits, {"serve"}, 0},
      {{"--max-campaigns"}, &a.maxCampaigns, {"serve"}, 0},
      {{"--max-campaigns-served"}, &a.maxCampaignsServed, {"serve"}, 0},
      {{"--retry-after-ms"}, &a.retryAfterMs, {"serve"}, 0},
      {{"--max-client-frame-bytes"}, &a.maxClientFrameBytes, {"serve"}, 0},
      {{"--client-read-timeout-ms"}, &a.clientReadTimeoutMs, {"serve"}, 0, INT_MAX},
      {{"--index"}, &a.index, {"worker"}, 0, INT_MAX},
      {{"--generation"}, &a.generation, {"worker"}, 0, INT_MAX},
      {{"--verbose"}, &a.verbose, {}},
  };
  try {
    util::parseCommandLine(flags, cmd, 0, argv);
  } catch (const util::UsageError& e) {
    usage(e.what());
  }
  // run and serve forward the cap to their workers only with a store to cap.
  if (a.cacheDir.empty() && a.cacheMaxBytes != 0) usage("--cache-max-bytes needs --cache-dir");
  if (a.verbose) util::setLogLevel(util::LogLevel::Info);
  return a;
}

void configureCache(const Args& a) {
  if (a.cacheDir.empty()) return;
  util::configureProcessArtifactStore(util::ArtifactStoreConfig{
      a.cacheDir, static_cast<std::uint64_t>(a.cacheMaxBytes), 0});
}

std::vector<std::string> workerCommand(const char* self, const Args& a) {
  std::vector<std::string> cmd = {self, "worker"};
  if (!a.cacheDir.empty()) {
    cmd.push_back("--cache-dir");
    cmd.push_back(a.cacheDir);
    if (a.cacheMaxBytes > 0) {
      cmd.push_back("--cache-max-bytes");
      cmd.push_back(std::to_string(a.cacheMaxBytes));
    }
  }
  return cmd;
}

/// The pool settings `run` and `serve` share, from flags with strict env
/// defaults.
void fillPoolOptions(const char* self, const Args& a, campaign::PoolOptions& opt) {
  opt.workers = static_cast<int>(a.workers);
  opt.maxFragmentMutants = static_cast<std::size_t>(a.maxFragment);
  opt.heartbeatIntervalMs = static_cast<int>(
      a.heartbeatMs > 0 ? a.heartbeatMs
                        : util::envLongStrict("XLV_HEARTBEAT_MS", 200, 1, INT_MAX));
  opt.heartbeatTimeoutMs = static_cast<int>(
      a.heartbeatTimeoutMs > 0
          ? a.heartbeatTimeoutMs
          : util::envLongStrict("XLV_HEARTBEAT_TIMEOUT_MS", 10000, 1, INT_MAX));
  if (a.maxAttempts > 0) opt.maxTaskAttempts = static_cast<int>(a.maxAttempts);
  if (a.maxRespawns >= 0) opt.maxWorkerRespawns = static_cast<int>(a.maxRespawns);
  opt.workerCommand = workerCommand(self, a);
}

int cmdRun(const char* self, const Args& a) {
  if (a.spec.empty()) usage("--spec FILE is required");
  campaign::DispatchOptions opt;
  fillPoolOptions(self, a, opt);
  const campaign::CampaignSpec spec = campaign::decodeCampaignSpec(util::readFile(a.spec));

  campaign::DispatchResult res;
  try {
    res = campaign::runDispatcher(spec, opt);
  } catch (const campaign::DispatchError& e) {
    std::fprintf(stderr, "xlv_campaignd run: %s\n", e.what());
    return 6;
  }
  util::writeOutput(a.out, campaign::encodeCampaignResult(res.result));
  if (!a.ledger.empty()) {
    util::writeOutput(a.ledger, campaign::encodeServeLedgerJson(res.ledger));
  }
  std::fprintf(stderr,
               "campaignd: %llu tasks, %llu submissions, %zu re-queues, %llu quarantined, "
               "%llu duplicate results, %llu workers spawned (%llu respawns, %llu killed)\n",
               static_cast<unsigned long long>(res.ledger.tasksTotal),
               static_cast<unsigned long long>(res.ledger.submissions),
               res.ledger.requeuedShards.size(),
               static_cast<unsigned long long>(res.ledger.quarantinedUnits),
               static_cast<unsigned long long>(res.ledger.duplicateResults),
               static_cast<unsigned long long>(res.ledger.workersSpawned),
               static_cast<unsigned long long>(res.ledger.workerRespawns),
               static_cast<unsigned long long>(res.ledger.workersKilled));
  if (!res.result.ok()) {
    const auto* first = res.result.firstError();
    std::fprintf(stderr, "campaignd finished with item errors; first: task %zu (%s): %s\n",
                 first->taskId, first->label.c_str(), first->error.c_str());
    return campaign::campaignExitCode(res.result);
  }
  return 0;
}

int cmdServe(const char* self, const Args& a) {
  if (a.socket.empty() && a.tcpPort <= 0) {
    usage("serve: --socket PATH or --tcp-port P is required");
  }
  campaign::ServeOptions opt;
  fillPoolOptions(self, a, opt);
  opt.socketPath = a.socket;
  opt.tcpPort = static_cast<int>(a.tcpPort);
  if (a.maxPendingUnits > 0) opt.maxPendingUnits = static_cast<std::size_t>(a.maxPendingUnits);
  if (a.maxCampaigns > 0) opt.maxCampaigns = static_cast<std::size_t>(a.maxCampaigns);
  if (a.maxCampaignsServed > 0) {
    opt.maxCampaignsServed = static_cast<std::uint64_t>(a.maxCampaignsServed);
  }
  if (a.retryAfterMs >= 0) opt.rejectRetryAfterMs = static_cast<std::uint64_t>(a.retryAfterMs);
  if (a.maxClientFrameBytes > 0) {
    opt.maxClientFrameBytes = static_cast<std::size_t>(a.maxClientFrameBytes);
  }
  if (a.clientReadTimeoutMs >= 0) {
    opt.clientReadTimeoutMs = static_cast<int>(a.clientReadTimeoutMs);
  }
  // The daemon owns its process: SIGTERM/SIGINT mean "drain and exit 0".
  opt.enableSignalDrain = true;

  campaign::ServeResult res;
  try {
    res = campaign::runCampaignServer(opt);
  } catch (const campaign::DispatchError& e) {
    std::fprintf(stderr, "xlv_campaignd serve: %s\n", e.what());
    return 6;
  }
  if (!a.ledger.empty()) {
    util::writeOutput(a.ledger, campaign::encodeServeLedgerJson(res.ledger));
  }
  std::fprintf(stderr,
               "campaignd serve: %llu accepted (%llu completed, %llu cancelled), "
               "%llu rejected, %llu submissions, %llu workers spawned (%llu respawns, "
               "%llu killed)\n",
               static_cast<unsigned long long>(res.ledger.campaignsAccepted),
               static_cast<unsigned long long>(res.ledger.campaignsCompleted),
               static_cast<unsigned long long>(res.ledger.campaignsCancelled),
               static_cast<unsigned long long>(res.ledger.campaignsRejected),
               static_cast<unsigned long long>(res.ledger.submissions),
               static_cast<unsigned long long>(res.ledger.workersSpawned),
               static_cast<unsigned long long>(res.ledger.workerRespawns),
               static_cast<unsigned long long>(res.ledger.workersKilled));
  return 0;
}

int cmdWorker(const Args& a) {
  if (a.index < 0) usage("worker: --index I (>= 0) is required");
  if (a.generation < 0) usage("worker: --generation G (>= 0) is required");
  configureCache(a);
  campaign::DispatchWorkerOptions opt;
  opt.workerIndex = static_cast<int>(a.index);
  opt.generation = static_cast<int>(a.generation);
  opt.heartbeatIntervalMs = a.heartbeatMs > 0 ? static_cast<int>(a.heartbeatMs) : 200;
  return campaign::runDispatchWorker(opt);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  if (cmd != "run" && cmd != "serve" && cmd != "worker") {
    usage(("unknown command '" + cmd + "'").c_str());
  }
  const Args a = parseArgs(cmd, std::vector<std::string>(argv + 2, argv + argc));
  try {
    // Parse XLV_FAULTS up front so a malformed grammar is a clean startup
    // diagnostic, not a throw from deep inside a noexcept write path.
    xlv::util::initFaultPointsFromEnv();
    if (cmd == "run") return cmdRun(argv[0], a);
    if (cmd == "serve") return cmdServe(argv[0], a);
    return cmdWorker(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xlv_campaignd %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
