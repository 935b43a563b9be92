// xlv_campaignd — campaign worker pool (campaign/dispatch.h) behind one
// event loop (campaign/server.h), in two modes.
//
// Where xlv_campaign shards a campaign STATICALLY (plan once, run each slice
// in its own process, merge by hand), the daemon owns the whole loop: it
// splits each spec into stealable units (whole items and mutant-range
// fragments), spawns a pool of worker subprocesses of ITSELF (the internal
// `worker` subcommand), schedules by work-stealing — an idle worker claims
// the heaviest queued unit — and merges the unit results into one
// CampaignResult that is bit-identical (sameResults) to the single-process
// run. A worker that crashes, exits or goes silent past the heartbeat
// timeout is SIGKILLed/reaped and its unit re-queued; the retry is safe
// because unit results are bit-identical by construction. A unit that
// exhausts its attempt budget is bisected down to the poison mutant, which
// is quarantined with a structured per-item error.
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
// protocol errors (see campaign/dispatch.h).
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/dispatch.h"
#include "campaign/serialize.h"
#include "campaign/server.h"
#include "campaign/shard.h"
#include "util/artifact_store.h"
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

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void writeOutput(const std::string& path, const std::string& data) {
  if (path.empty() || path == "-") {
    std::fwrite(data.data(), 1, data.size(), stdout);
    return;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || !(out << data)) throw std::runtime_error("cannot write '" + path + "'");
}

struct Args {
  std::string spec, out, ledger, cacheDir, socket;
  long workers = 0, maxFragment = 0, index = -1, generation = -1;
  long heartbeatMs = 0, heartbeatTimeoutMs = 0, maxAttempts = 0, maxRespawns = -1;
  long cacheMaxBytes = 0;
  long tcpPort = 0, maxPendingUnits = 0, maxCampaigns = 0, maxCampaignsServed = 0;
  long retryAfterMs = -1;
  long maxClientFrameBytes = 0, clientReadTimeoutMs = -1;

  static long parseLong(const std::string& flag, const std::string& v) {
    try {
      std::size_t end = 0;
      const long n = std::stol(v, &end);
      if (end != v.size()) throw std::invalid_argument(v);
      return n;
    } catch (const std::exception&) {
      usage(("flag " + flag + ": invalid integer '" + v + "'").c_str());
    }
  }
};

Args parseArgs(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) usage((std::string(flag) + " requires a value").c_str());
      return argv[++i];
    };
    if (arg == "--spec") {
      a.spec = next("--spec");
    } else if (arg == "-o" || arg == "--out") {
      a.out = next("-o");
    } else if (arg == "--ledger") {
      a.ledger = next("--ledger");
    } else if (arg == "--socket") {
      a.socket = next("--socket");
    } else if (arg == "--tcp-port") {
      a.tcpPort = Args::parseLong(arg, next("--tcp-port"));
    } else if (arg == "--workers") {
      a.workers = Args::parseLong(arg, next("--workers"));
    } else if (arg == "--max-fragment") {
      a.maxFragment = Args::parseLong(arg, next("--max-fragment"));
    } else if (arg == "--max-pending-units") {
      a.maxPendingUnits = Args::parseLong(arg, next("--max-pending-units"));
    } else if (arg == "--max-campaigns") {
      a.maxCampaigns = Args::parseLong(arg, next("--max-campaigns"));
    } else if (arg == "--max-campaigns-served") {
      a.maxCampaignsServed = Args::parseLong(arg, next("--max-campaigns-served"));
    } else if (arg == "--retry-after-ms") {
      a.retryAfterMs = Args::parseLong(arg, next("--retry-after-ms"));
    } else if (arg == "--max-client-frame-bytes") {
      a.maxClientFrameBytes = Args::parseLong(arg, next("--max-client-frame-bytes"));
    } else if (arg == "--client-read-timeout-ms") {
      a.clientReadTimeoutMs = Args::parseLong(arg, next("--client-read-timeout-ms"));
    } else if (arg == "--index") {
      a.index = Args::parseLong(arg, next("--index"));
    } else if (arg == "--generation") {
      a.generation = Args::parseLong(arg, next("--generation"));
    } else if (arg == "--heartbeat-ms") {
      a.heartbeatMs = Args::parseLong(arg, next("--heartbeat-ms"));
    } else if (arg == "--heartbeat-timeout-ms") {
      a.heartbeatTimeoutMs = Args::parseLong(arg, next("--heartbeat-timeout-ms"));
    } else if (arg == "--max-attempts") {
      a.maxAttempts = Args::parseLong(arg, next("--max-attempts"));
    } else if (arg == "--max-respawns") {
      a.maxRespawns = Args::parseLong(arg, next("--max-respawns"));
    } else if (arg == "--cache-dir") {
      a.cacheDir = next("--cache-dir");
    } else if (arg == "--cache-max-bytes") {
      a.cacheMaxBytes = Args::parseLong(arg, next("--cache-max-bytes"));
    } else if (arg == "--verbose") {
      util::setLogLevel(util::LogLevel::Info);
    } else {
      usage(("unknown argument '" + arg + "'").c_str());
    }
  }
  return a;
}

void configureCache(const Args& a) {
  if (a.cacheMaxBytes < 0) usage("--cache-max-bytes must be >= 0 (0 = unbounded)");
  if (a.cacheDir.empty()) {
    if (a.cacheMaxBytes != 0) usage("--cache-max-bytes needs --cache-dir");
    return;
  }
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
  if (a.workers < 0) usage("--workers must be >= 0 (0 = XLV_WORKERS or hardware)");
  if (a.maxFragment < 0) usage("--max-fragment must be >= 0 (0 = whole items)");
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
  const campaign::CampaignSpec spec = campaign::decodeCampaignSpec(readFile(a.spec));

  campaign::DispatchResult res;
  try {
    res = campaign::runDispatcher(spec, opt);
  } catch (const campaign::DispatchError& e) {
    std::fprintf(stderr, "xlv_campaignd run: %s\n", e.what());
    return 6;
  }
  writeOutput(a.out, campaign::encodeCampaignResult(res.result));
  if (!a.ledger.empty()) {
    writeOutput(a.ledger, campaign::encodeServeLedgerJson(res.ledger));
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
  if (a.maxClientFrameBytes < 0) usage("--max-client-frame-bytes must be >= 1");
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
    writeOutput(a.ledger, campaign::encodeServeLedgerJson(res.ledger));
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
  // Every submit frame names its campaign's spec handoff file.
  if (!a.spec.empty()) usage("worker: --spec is not a worker flag");
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
  try {
    // Parse XLV_FAULTS up front so a malformed grammar is a clean startup
    // diagnostic, not a throw from deep inside a noexcept write path.
    xlv::util::initFaultPointsFromEnv();
    const Args a = parseArgs(argc, argv, 2);
    if (cmd == "run") return cmdRun(argv[0], a);
    if (cmd == "serve") return cmdServe(argv[0], a);
    if (cmd == "worker") return cmdWorker(a);
    usage(("unknown command '" + cmd + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xlv_campaignd %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
