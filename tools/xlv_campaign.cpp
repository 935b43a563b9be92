// xlv_campaign — campaign CLI: build a spec, run it in this process, submit
// it to a campaign daemon, and compare or inspect the results. Every
// artifact is a self-contained versioned file (campaign/serialize.h):
//
//   xlv_campaign spec --preset smoke -o spec.xlv
//   xlv_campaign run --spec spec.xlv -o single.xlv          # reference
//   xlv_campaign show single.xlv
//
// A campaign runs across processes on the xlv_campaignd worker pool
// (tools/xlv_campaignd.cpp): the daemon splits the spec into units
// (campaign/shard.h), runs them on worker subprocesses and merges them back
// into a result that is bit-identical (CampaignResult::sameResults) to the
// single-process run:
//
//   xlv_campaignd run --spec spec.xlv --workers 3 -o pooled.xlv
//   xlv_campaign diff single.xlv pooled.xlv                 # exit 0 iff identical
//
// Cross-run / cross-process artifact reuse: pass --cache-dir DIR to run and
// the expensive immutable artifacts (golden traces, flow prefixes,
// per-mutant results) persist under DIR — a warm re-run, or a daemon worker
// sharing DIR, loads instead of recomputing while staying bit-identical.
// --cache-max-bytes caps the store with LRU eviction; --require-disk-hits
// makes a supposedly-warm run fail (exit 4) when the store served nothing,
// so CI catches a silently disabled cache.
//
// Native simulation backend: --backend native compiles the injected model
// into a shared library (see src/campaign/README.md); when no system C++
// compiler is available the campaign silently degrades to the bit-identical
// interpreter, so CI passes --require-native to turn that degradation into
// exit 5. --batch K co-simulates K mutants lock-step per analysis task.
//
// Service submissions: `submit` sends the spec to a running
// `xlv_campaignd serve` daemon over its Unix-domain socket (--socket) or
// loopback TCP port (--tcp-port), streams the per-unit results back, and
// reassembles them with the same mergeShards used everywhere else — so the
// served result diffs clean against a local run:
//
//   xlv_campaignd serve --socket /tmp/xlv.sock --workers 3 &
//   xlv_campaign submit --spec spec.xlv --socket /tmp/xlv.sock -o served.xlv
//   xlv_campaign diff single.xlv served.xlv
//
// Exit codes: 0 success (diff: identical), 1 usage or runtime error,
// 2 diff divergence, 3 campaign completed but one or more items errored
// (the output file is still written so the failure can be inspected, but
// CI pipelines fail instead of passing vacuously), 4 a
// --require-disk-hits run reported zero artifact-store hits, 5 a
// --require-native run performed no native-backend work (interpreter
// fallback, e.g. no system compiler), 7 the server rejected the submission
// (backpressure or malformed spec; the reject reason and retry hint are
// printed), 9 the --disconnect-after-items test hook closed the connection
// on purpose.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/serialize.h"
#include "campaign/server.h"
#include "campaign/shard.h"
#include "util/artifact_store.h"
#include "util/fault_point.h"
#include "util/log.h"

namespace {

using namespace xlv;

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "xlv_campaign: %s\n\n", error);
  std::fputs(
      "usage:\n"
      "  xlv_campaign spec --preset <name> [--threads N] [-o FILE]\n"
      "  xlv_campaign run --spec FILE [run flags] [cache flags] [-o FILE]\n"
      "  xlv_campaign submit --spec FILE (--socket PATH | --tcp-port P)\n"
      "                      [--max-fragment M] [--client-name NAME]\n"
      "                      [--max-retries N] [--deadline-ms N]\n"
      "                      [--disconnect-after-items N] [-o FILE]\n"
      "  xlv_campaign diff RESULT_A RESULT_B\n"
      "  xlv_campaign show RESULT_FILE\n"
      "  xlv_campaign cache-gc --cache-dir DIR [--max-age-seconds N]\n"
      "                        [--cache-max-bytes N]\n"
      "\n"
      "submit sends the spec to a running `xlv_campaignd serve` daemon,\n"
      "streams the per-unit results back and merges them (bit-identical to\n"
      "a local run). --max-fragment asks the server for that stealable-unit\n"
      "granularity; --client-name labels the server's ledger entry;\n"
      "--max-retries N retries a rejected submission (or a refused\n"
      "connection) with jittered exponential backoff honoring the server's\n"
      "retry hint; --deadline-ms N asks the server to fail the campaign\n"
      "past that wall-clock budget; --disconnect-after-items N hard-closes\n"
      "the socket after N streamed results (a fault-injection hook;\n"
      "exits 9).\n"
      "presets: smoke (2 IPs x 2 sensor kinds x 2 corners), single (one\n"
      "Counter item, for --max-fragment splitting), failing (broken mid-\n"
      "campaign items, exercises the exit-3 path). -o defaults to stdout.\n"
      "cache flags: --cache-dir DIR persists golden traces, flow prefixes\n"
      "and per-mutant results under DIR (shared across processes and runs,\n"
      "bit-identical warm or cold); --cache-max-bytes N caps the store with\n"
      "LRU eviction; --require-disk-hits exits 4 when a warm run loaded\n"
      "nothing from the store. cache-gc runs store housekeeping: entries\n"
      "older than --max-age-seconds expire, then the byte cap is enforced.\n"
      "run flags: --backend auto|interpreter|native picks the simulation\n"
      "engine for every item (native compiles the injected model with the\n"
      "system C++ compiler and falls back to the bit-identical interpreter\n"
      "when none exists; auto defers to XLV_BACKEND); --batch K co-simulates\n"
      "K mutants lock-step per task (XLV_BATCH; results identical for any\n"
      "K); --require-native exits 5 when the run performed no native work.\n"
      "XLV_REFERENCE_SIM=1 disables the divergence-driven mutant fast path\n"
      "(full replay from reset; results are bit-identical either way).\n"
      "--verbose raises the log level to info.\n",
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

/// Minimal flag cursor: named flags in any order, positional operands kept.
struct Args {
  std::vector<std::string> positional;
  std::string spec, out, preset, cacheDir, backend, socket, clientName;
  long maxFragment = 0, threads = 0, cacheMaxBytes = 0;
  long maxAgeSeconds = 0, batch = 0, tcpPort = 0, disconnectAfterItems = -1;
  long maxRetries = 0, deadlineMs = 0;
  bool requireDiskHits = false;
  bool requireNative = false;

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
    } else if (arg == "--preset") {
      a.preset = next("--preset");
    } else if (arg == "--max-fragment") {
      a.maxFragment = Args::parseLong(arg, next("--max-fragment"));
    } else if (arg == "--threads") {
      a.threads = Args::parseLong(arg, next("--threads"));
    } else if (arg == "--cache-dir") {
      a.cacheDir = next("--cache-dir");
    } else if (arg == "--cache-max-bytes") {
      a.cacheMaxBytes = Args::parseLong(arg, next("--cache-max-bytes"));
    } else if (arg == "--max-age-seconds") {
      a.maxAgeSeconds = Args::parseLong(arg, next("--max-age-seconds"));
    } else if (arg == "--require-disk-hits") {
      a.requireDiskHits = true;
    } else if (arg == "--backend") {
      a.backend = next("--backend");
    } else if (arg == "--batch") {
      a.batch = Args::parseLong(arg, next("--batch"));
    } else if (arg == "--require-native") {
      a.requireNative = true;
    } else if (arg == "--socket") {
      a.socket = next("--socket");
    } else if (arg == "--tcp-port") {
      a.tcpPort = Args::parseLong(arg, next("--tcp-port"));
    } else if (arg == "--client-name") {
      a.clientName = next("--client-name");
    } else if (arg == "--disconnect-after-items") {
      a.disconnectAfterItems = Args::parseLong(arg, next("--disconnect-after-items"));
    } else if (arg == "--max-retries") {
      a.maxRetries = Args::parseLong(arg, next("--max-retries"));
    } else if (arg == "--deadline-ms") {
      a.deadlineMs = Args::parseLong(arg, next("--deadline-ms"));
    } else if (arg == "--verbose") {
      util::setLogLevel(util::LogLevel::Info);
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      usage(("unknown flag '" + arg + "'").c_str());
    } else {
      a.positional.push_back(arg);
    }
  }
  return a;
}

campaign::CampaignSpec loadSpec(const Args& a) {
  if (a.spec.empty()) usage("--spec FILE is required");
  return campaign::decodeCampaignSpec(readFile(a.spec));
}

/// Apply the run-time engine overrides (--backend / --batch) to every item
/// of the loaded spec. The overrides never change results — backends and
/// batch sizes are bit-identical by construction — so a native run still
/// diffs clean against an interpreter reference.
void applyBackendOverrides(const Args& a, campaign::CampaignSpec& spec) {
  if (!a.backend.empty()) {
    const analysis::SimBackend be = analysis::simBackendFromName(a.backend);
    for (auto& item : spec.items) item.options.backend = be;
  }
  if (a.batch != 0) {
    if (a.batch < 1) usage("--batch must be >= 1");
    for (auto& item : spec.items) item.options.batch = static_cast<int>(a.batch);
  }
}

/// Subcommands that never run a campaign must reject the run flags too.
void rejectRunFlags(const Args& a, const char* cmd) {
  if (!a.backend.empty() || a.batch != 0 || a.requireNative) {
    usage((std::string(cmd) +
           " does not take run flags (--backend/--batch/--require-native "
           "apply to run)")
              .c_str());
  }
}

/// Only submit talks to a server; the flags are meaningless elsewhere.
void rejectServiceFlags(const Args& a, const char* cmd) {
  if (!a.socket.empty() || a.tcpPort != 0 || !a.clientName.empty() ||
      a.disconnectAfterItems != -1 || a.maxRetries != 0 || a.deadlineMs != 0) {
    usage((std::string(cmd) +
           " does not take service flags (--socket/--tcp-port/--client-name/"
           "--max-retries/--deadline-ms/--disconnect-after-items apply to "
           "submit)")
              .c_str());
  }
}

/// Subcommands that never touch the store must REJECT cache flags, not
/// silently ignore them (a flag on the wrong pipeline stage doing nothing
/// is how a "cached" pipeline runs cold without anyone noticing).
void rejectCacheFlags(const Args& a, const char* cmd) {
  if (!a.cacheDir.empty() || a.cacheMaxBytes != 0 || a.maxAgeSeconds != 0 ||
      a.requireDiskHits) {
    usage((std::string(cmd) +
           " does not take cache flags (--cache-dir/--cache-max-bytes/"
           "--max-age-seconds/--require-disk-hits apply to run and cache-gc)")
              .c_str());
  }
}

/// Install the process-wide artifact store when --cache-dir was given.
void configureCache(const Args& a) {
  if (a.cacheMaxBytes < 0) usage("--cache-max-bytes must be >= 0 (0 = unbounded)");
  if (a.maxAgeSeconds < 0) usage("--max-age-seconds must be >= 0 (0 = never expire)");
  if (a.cacheDir.empty()) {
    if (a.requireDiskHits) usage("--require-disk-hits needs --cache-dir");
    if (a.cacheMaxBytes != 0) usage("--cache-max-bytes needs --cache-dir");
    if (a.maxAgeSeconds != 0) usage("--max-age-seconds needs --cache-dir");
    return;
  }
  util::configureProcessArtifactStore(util::ArtifactStoreConfig{
      a.cacheDir, static_cast<std::uint64_t>(a.cacheMaxBytes),
      static_cast<std::uint64_t>(a.maxAgeSeconds)});
}

/// Per-item failures don't abort a campaign, but they must fail the
/// process (campaign::campaignExitCode, exit 3): a pipeline whose every
/// stage exits 0 while zero mutants were simulated would pass vacuously.
/// Similarly, --require-disk-hits fails (exit 4) a run whose supposedly
/// warm artifact store served nothing.
int reportItemErrors(const char* what, const Args& a, const campaign::CampaignResult& r) {
  if (!r.ok()) {
    const auto* first = r.firstError();
    std::fprintf(stderr, "%s finished with item errors; first: task %zu (%s): %s\n", what,
                 first->taskId, first->label.c_str(), first->error.c_str());
    return campaign::campaignExitCode(r);
  }
  if (a.requireDiskHits && r.diskHits == 0) {
    std::fprintf(stderr,
                 "%s expected artifact-store hits (--require-disk-hits) but the store "
                 "served none (stores %d, evictions %d) — cache silently cold?\n",
                 what, r.diskStores, r.diskEvictions);
    return 4;
  }
  if (a.requireNative && r.nativeCompiles + r.nativeCacheHits == 0) {
    std::fprintf(stderr,
                 "%s expected native-backend work (--require-native) but none ran — "
                 "interpreter fallback (no system C++ compiler, or --backend/"
                 "XLV_BACKEND not set to native)?\n",
                 what);
    return 5;
  }
  return 0;
}

void printSummary(const campaign::CampaignResult& r) {
  std::printf("campaign '%s': %zu items, %s\n", r.name.c_str(), r.items.size(),
              r.ok() ? "ok" : "ERRORS");
  for (const auto& it : r.items) {
    if (!it.error.empty()) {
      std::printf("  [%4zu] %-44s ERROR: %s\n", it.taskId, it.label.c_str(),
                  it.error.c_str());
      continue;
    }
    const auto& an = it.report.analysis;
    std::printf("  [%4zu] %-44s mutants %3d  killed %5.1f%%  risen %5.1f%%\n", it.taskId,
                it.label.c_str(), an.total(), an.killedPct(), an.risenPct());
  }
  std::printf(
      "ledger: sim %.3fs, golden %.3fs, wall %.3fs, golden hits %d, prefix hits %d, "
      "mutant hits %d, threads %d\n"
      "cycles: simulated %llu, skipped %llu (fast-forward + early exit + class members)\n"
      "store:  disk hits %d, stores %d, evictions %d\n"
      "native: compiles %d, cache hits %d, batched mutants %d\n",
      r.simSeconds, r.goldenSeconds, r.wallSeconds, r.goldenCacheHits, r.prefixCacheHits,
      r.mutantCacheHits, r.threadsUsed,
      static_cast<unsigned long long>(r.cyclesSimulated),
      static_cast<unsigned long long>(r.cyclesSkipped), r.diskHits, r.diskStores,
      r.diskEvictions, r.nativeCompiles, r.nativeCacheHits, r.batchedMutants);
}

int cmdSpec(const Args& a) {
  rejectServiceFlags(a, "spec");
  rejectCacheFlags(a, "spec");
  rejectRunFlags(a, "spec");
  if (a.preset.empty()) usage("--preset <name> is required");
  if (a.threads < 0) usage("--threads must be >= 0 (0 = auto)");
  campaign::CampaignSpec spec = campaign::builtinCampaignSpec(a.preset);
  if (a.threads != 0) spec.executor.threads = static_cast<int>(a.threads);
  writeOutput(a.out, campaign::encodeCampaignSpec(spec));
  std::fprintf(stderr, "spec '%s': %zu items, fingerprint %016llx\n", spec.name.c_str(),
               spec.items.size(),
               static_cast<unsigned long long>(campaign::campaignSpecFnv(spec)));
  return 0;
}

int cmdRun(const Args& a) {
  rejectServiceFlags(a, "run");
  campaign::CampaignSpec spec = loadSpec(a);
  applyBackendOverrides(a, spec);
  configureCache(a);
  const campaign::CampaignResult result = campaign::runCampaign(spec);
  writeOutput(a.out, campaign::encodeCampaignResult(result));
  return reportItemErrors("campaign", a, result);
}

/// Submit the spec to a running `xlv_campaignd serve` daemon and merge the
/// streamed results. The served result goes through the same writeOutput /
/// reportItemErrors path as a local run, so pipelines can swap `run` for
/// `submit` without changing their failure handling.
int cmdSubmit(const Args& a) {
  rejectCacheFlags(a, "submit");
  rejectRunFlags(a, "submit");
  if (a.socket.empty() && a.tcpPort == 0) {
    usage("submit needs a server address (--socket PATH or --tcp-port P)");
  }
  if (a.tcpPort < 0 || a.tcpPort > 65535) usage("--tcp-port must be in [1, 65535]");
  if (a.maxFragment < 0) usage("--max-fragment must be >= 0");
  if (a.maxRetries < 0) usage("--max-retries must be >= 0");
  if (a.deadlineMs < 0) usage("--deadline-ms must be >= 0 (0 = no deadline)");
  const campaign::CampaignSpec spec = loadSpec(a);
  campaign::SubmitOptions opt;
  opt.socketPath = a.socket;
  opt.tcpPort = static_cast<int>(a.tcpPort);
  if (!a.clientName.empty()) opt.clientName = a.clientName;
  opt.maxFragmentMutants = static_cast<std::size_t>(a.maxFragment);
  opt.disconnectAfterItems = a.disconnectAfterItems;
  opt.maxRetries = static_cast<int>(a.maxRetries);
  opt.deadlineMs = static_cast<std::uint64_t>(a.deadlineMs);
  const campaign::SubmitOutcome outcome = campaign::submitCampaign(spec, opt);
  if (outcome.retries > 0) {
    std::fprintf(stderr, "submission retried %llu time(s)\n",
                 static_cast<unsigned long long>(outcome.retries));
  }
  if (outcome.rejected) {
    std::fprintf(stderr,
                 "submission rejected: %s (retry after %llu ms)\n",
                 outcome.rejectReason.c_str(),
                 static_cast<unsigned long long>(outcome.retryAfterMs));
    return 7;
  }
  if (outcome.disconnected) {
    std::fprintf(stderr,
                 "disconnected on purpose after %zu item results "
                 "(--disconnect-after-items %ld)\n",
                 outcome.outputs.size(), a.disconnectAfterItems);
    return 9;
  }
  if (!outcome.error.empty()) {
    std::fprintf(stderr, "submit failed: %s\n", outcome.error.c_str());
    return 1;
  }
  writeOutput(a.out, campaign::encodeCampaignResult(outcome.result));
  std::fprintf(stderr,
               "served campaign %llu: %llu units over %zu result frames\n",
               static_cast<unsigned long long>(outcome.campaignId),
               static_cast<unsigned long long>(outcome.unitCount),
               outcome.outputs.size());
  if (!outcome.quarantined.empty()) {
    std::fprintf(stderr, "server quarantined %zu unit(s); their items carry errors\n",
                 outcome.quarantined.size());
  }
  return reportItemErrors("served campaign", a, outcome.result);
}

int cmdDiff(const Args& a) {
  rejectServiceFlags(a, "diff");
  rejectCacheFlags(a, "diff");
  rejectRunFlags(a, "diff");
  if (a.positional.size() != 2) usage("diff takes exactly two result files");
  const campaign::CampaignResult x = campaign::decodeCampaignResult(readFile(a.positional[0]));
  const campaign::CampaignResult y = campaign::decodeCampaignResult(readFile(a.positional[1]));
  if (x.sameResults(y)) {
    std::printf("identical: %zu items\n", x.items.size());
    return 0;
  }
  if (x.items.size() != y.items.size()) {
    std::printf("DIVERGED: %zu vs %zu items\n", x.items.size(), y.items.size());
    return 2;
  }
  for (std::size_t i = 0; i < x.items.size(); ++i) {
    // Narrow the divergence per item with the comparator sameResults uses.
    if (!campaign::sameItemResults(x.items[i], y.items[i])) {
      std::printf("DIVERGED at task %zu: '%s' vs '%s'\n", i, x.items[i].label.c_str(),
                  y.items[i].label.c_str());
    }
  }
  return 2;
}

int cmdShow(const Args& a) {
  rejectServiceFlags(a, "show");
  rejectCacheFlags(a, "show");
  rejectRunFlags(a, "show");
  if (a.positional.size() != 1) usage("show takes exactly one result file");
  printSummary(campaign::decodeCampaignResult(readFile(a.positional[0])));
  return 0;
}

int cmdCacheGc(const Args& a) {
  rejectServiceFlags(a, "cache-gc");
  rejectRunFlags(a, "cache-gc");
  if (a.cacheDir.empty()) usage("cache-gc requires --cache-dir DIR");
  if (a.requireDiskHits) usage("cache-gc does not take --require-disk-hits");
  if (a.cacheMaxBytes < 0) usage("--cache-max-bytes must be >= 0 (0 = unbounded)");
  if (a.maxAgeSeconds < 0) usage("--max-age-seconds must be >= 0 (0 = never expire)");
  util::ArtifactStore store(util::ArtifactStoreConfig{
      a.cacheDir, static_cast<std::uint64_t>(a.cacheMaxBytes),
      static_cast<std::uint64_t>(a.maxAgeSeconds)});
  // Construction already swept (aged entries + temp orphans); gc() reports
  // a complete pass so the numbers below reflect this invocation.
  store.gc();
  const util::ArtifactStoreStats s = store.stats();
  std::printf("cache-gc '%s': expired %zu, evicted %zu, remaining %llu bytes\n",
              a.cacheDir.c_str(), s.expired, s.evictions,
              static_cast<unsigned long long>(store.diskBytes()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  using Command = int (*)(const Args&);
  const std::pair<const char*, Command> commands[] = {
      {"spec", cmdSpec}, {"run", cmdRun},   {"submit", cmdSubmit},
      {"diff", cmdDiff}, {"show", cmdShow}, {"cache-gc", cmdCacheGc}};
  Command command = nullptr;
  for (const auto& [name, fn] : commands) {
    if (cmd == name) command = fn;
  }
  if (command == nullptr) usage(("unknown command '" + cmd + "'").c_str());
  try {
    // Strict XLV_FAULTS parse up front: a typo aborts with a message here
    // instead of throwing from a noexcept write path mid-run.
    xlv::util::initFaultPointsFromEnv();
    return command(parseArgs(argc, argv, 2));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xlv_campaign %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
