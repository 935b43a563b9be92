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
// Flags: one table (parseArgs) lists every flag once with the subcommands
// that read it. A flag its subcommand does not read is a usage error, like
// an unknown flag, a missing value, a stray operand or a malformed number
// (`--batch 2x`): whatever parses shapes the run.
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
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/serialize.h"
#include "campaign/server.h"
#include "campaign/shard.h"
#include "util/artifact_store.h"
#include "util/cli.h"
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

struct Args {
  std::vector<std::string> operands;
  std::string spec, out, preset, cacheDir, backend, socket, clientName;
  long maxFragment = 0, threads = 0, cacheMaxBytes = 0;
  long maxAgeSeconds = 0, batch = 0, tcpPort = 0, disconnectAfterItems = -1;
  long maxRetries = 0, deadlineMs = 0;
  bool requireDiskHits = false, requireNative = false, verbose = false;
};

/// The flag table: each flag once, with the subcommands that read it.
Args parseArgs(const std::string& cmd, std::size_t operands,
               const std::vector<std::string>& argv) {
  Args a;
  const std::vector<util::Flag> flags = {
      {{"--preset"}, &a.preset, {"spec"}},
      {{"--threads"}, &a.threads, {"spec"}, 0, INT_MAX},
      {{"-o", "--out"}, &a.out, {"spec", "run", "submit"}},
      {{"--spec"}, &a.spec, {"run", "submit"}},
      {{"--cache-dir"}, &a.cacheDir, {"run", "cache-gc"}},
      {{"--cache-max-bytes"}, &a.cacheMaxBytes, {"run", "cache-gc"}, 0},
      {{"--max-age-seconds"}, &a.maxAgeSeconds, {"run", "cache-gc"}, 0},
      {{"--require-disk-hits"}, &a.requireDiskHits, {"run"}},
      {{"--backend"}, &a.backend, {"run"}},
      {{"--batch"}, &a.batch, {"run"}, 0, INT_MAX},
      {{"--require-native"}, &a.requireNative, {"run"}},
      {{"--socket"}, &a.socket, {"submit"}},
      {{"--tcp-port"}, &a.tcpPort, {"submit"}, 0, 65535},
      {{"--client-name"}, &a.clientName, {"submit"}},
      {{"--max-fragment"}, &a.maxFragment, {"submit"}, 0},
      {{"--disconnect-after-items"}, &a.disconnectAfterItems, {"submit"}},
      {{"--max-retries"}, &a.maxRetries, {"submit"}, 0, INT_MAX},
      {{"--deadline-ms"}, &a.deadlineMs, {"submit"}, 0},
      {{"--verbose"}, &a.verbose, {}},
  };
  try {
    a.operands = util::parseCommandLine(flags, cmd, operands, argv);
  } catch (const util::UsageError& e) {
    usage(e.what());
  }
  if (a.verbose) util::setLogLevel(util::LogLevel::Info);
  return a;
}

campaign::CampaignSpec loadSpec(const Args& a) {
  if (a.spec.empty()) usage("--spec FILE is required");
  return campaign::decodeCampaignSpec(util::readFile(a.spec));
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
    for (auto& item : spec.items) item.options.batch = static_cast<int>(a.batch);
  }
}

/// Install the process-wide artifact store when --cache-dir was given.
void configureCache(const Args& a) {
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
      "cycles: simulated %llu, skipped %llu (fast-forward + early exit; + class members "
      "only when the mutant cache is off)\n"
      "store:  disk hits %d, stores %d, evictions %d\n"
      "native: compiles %d, cache hits %d, batched mutants %d\n",
      r.simSeconds, r.goldenSeconds, r.wallSeconds, r.goldenCacheHits, r.prefixCacheHits,
      r.mutantCacheHits, r.threadsUsed,
      static_cast<unsigned long long>(r.cyclesSimulated),
      static_cast<unsigned long long>(r.cyclesSkipped), r.diskHits, r.diskStores,
      r.diskEvictions, r.nativeCompiles, r.nativeCacheHits, r.batchedMutants);
}

int cmdSpec(const Args& a) {
  if (a.preset.empty()) usage("--preset <name> is required");
  campaign::CampaignSpec spec = campaign::builtinCampaignSpec(a.preset);
  if (a.threads != 0) spec.executor.threads = static_cast<int>(a.threads);
  util::writeOutput(a.out, campaign::encodeCampaignSpec(spec));
  std::fprintf(stderr, "spec '%s': %zu items, fingerprint %016llx\n", spec.name.c_str(),
               spec.items.size(),
               static_cast<unsigned long long>(campaign::campaignSpecFnv(spec)));
  return 0;
}

int cmdRun(const Args& a) {
  campaign::CampaignSpec spec = loadSpec(a);
  applyBackendOverrides(a, spec);
  configureCache(a);
  const campaign::CampaignResult result = campaign::runCampaign(spec);
  util::writeOutput(a.out, campaign::encodeCampaignResult(result));
  return reportItemErrors("campaign", a, result);
}

/// Submit the spec to a running `xlv_campaignd serve` daemon and merge the
/// streamed results. The served result goes through the same writeOutput /
/// reportItemErrors path as a local run, so pipelines can swap `run` for
/// `submit` without changing their failure handling.
int cmdSubmit(const Args& a) {
  if (a.socket.empty() && a.tcpPort == 0) {
    usage("submit needs a server address (--socket PATH or --tcp-port P)");
  }
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
  util::writeOutput(a.out, campaign::encodeCampaignResult(outcome.result));
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
  const auto x = campaign::decodeCampaignResult(util::readFile(a.operands[0]));
  const auto y = campaign::decodeCampaignResult(util::readFile(a.operands[1]));
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
  printSummary(campaign::decodeCampaignResult(util::readFile(a.operands[0])));
  return 0;
}

int cmdCacheGc(const Args& a) {
  if (a.cacheDir.empty()) usage("cache-gc requires --cache-dir DIR");
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
  struct Command {
    const char* name;
    int (*run)(const Args&);
    std::size_t operands;
  };
  const Command commands[] = {{"spec", cmdSpec, 0}, {"run", cmdRun, 0},
                              {"submit", cmdSubmit, 0}, {"diff", cmdDiff, 2},
                              {"show", cmdShow, 1}, {"cache-gc", cmdCacheGc, 0}};
  const Command* command = nullptr;
  for (const Command& c : commands) {
    if (cmd == c.name) command = &c;
  }
  if (command == nullptr) usage(("unknown command '" + cmd + "'").c_str());
  const Args a =
      parseArgs(cmd, command->operands, std::vector<std::string>(argv + 2, argv + argc));
  try {
    // Strict XLV_FAULTS parse up front: a typo aborts with a message here
    // instead of throwing from a noexcept write path mid-run.
    xlv::util::initFaultPointsFromEnv();
    return command->run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xlv_campaign %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
