// xlv_e2e_bench — end-to-end mutation-campaign benchmark (README.md).
//
//   xlv_e2e_bench --workload plasma_long|sweep_shared|served_mix
//                 --seed N [--seconds S] [--trace 0|1] [--trace-out FILE]
//
// One workload per process, so peak RSS is that workload's own; run.py's
// `--workload all` runs each in a process of its own and merges the JSON.
// --trace 0 times each workload end to end with tracing off; --trace 1 is
// the separate traced run that splits time and counts by layer and writes a
// Chrome trace-event file. Every leg checks its results against a
// reference leg; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit codes: 0 all checks
// passed, 1 a correctness check failed (the JSON still prints), 2 a
// malformed knob or an unwritable trace (no JSON).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "abstraction/native_backend.h"
#include "campaign/serialize.h"
#include "campaign/server.h"
#include "core/flow.h"
#include "knobs.h"
#include "served.h"
#include "stats.h"
#include "trace.h"
#include "traced_campaign.h"
#include "util/artifact_store.h"
#include "util/timer.h"
#include "workloads.h"

namespace {

using namespace xlv;
using namespace xlv::e2e;
namespace fs = std::filesystem;
using campaign::CampaignResult;
using campaign::CampaignSpec;

constexpr int kServeWorkers = 2;
constexpr int kServeClients = 3;
/// The traced run's campaign count: at least 100 latency samples after the
/// warm-up fifth, so a p90 has ten samples beyond it.
constexpr std::size_t kServeTracedCampaigns = 125;
/// The timed run serves the same mix in rounds, each on a fresh daemon: a
/// fixed count per daemon because its footprint grows with every campaign
/// served (peak RSS compares run to run only at a fixed count), and several
/// rounds so one burst of host contention moves one round's figures only.
constexpr std::size_t kServeRoundCampaigns = 500;
/// Latency is reported over the submissions after the first 1/N of a round,
/// once every worker has built the mix's few distinct items: the cold phase
/// depends on which worker happens to receive an item first.
constexpr std::size_t kServeWarmupShare = 5;
constexpr std::size_t kServeLocalChecks = 24;

struct Metric {
  std::string name, unit;
  double value;
};

/// What one workload run reports: the correctness ledger plus metrics.
struct Report {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;

  void metric(const std::string& name, const std::string& unit, double value,
              std::size_t samples) {
    metrics.push_back({name, unit, value});
    std::printf("  %-30s %16.6f %-9s n=%zu\n", name.c_str(), value, unit.c_str(), samples);
  }
  void check(bool ok, const std::string& what, long failedOps) {
    if (ok) return;
    correct = false;
    failed += failedOps;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  /// Count a campaign's items as attempted operations, errored ones failed.
  void items(const CampaignResult& r) {
    attempted += static_cast<long>(r.items.size());
    for (const auto& it : r.items) {
      if (!it.error.empty()) {
        ++failed;
        correct = false;
        std::fprintf(stderr, "CHECK FAILED: item %s errored: %s\n", it.label.c_str(),
                     it.error.c_str());
      }
    }
  }
  void same(const CampaignResult& ref, const CampaignResult& got, const std::string& what) {
    check(ref.sameResults(got), what + " diverged from its reference leg",
          static_cast<long>(got.items.size()));
  }
};

struct Leg {
  CampaignResult result;
  double seconds = 0.0;
};

Leg timed(const std::function<CampaignResult()>& run) {
  util::Timer t;
  CampaignResult r = run();
  return {std::move(r), t.seconds()};
}

void printLegs(const char* what, const std::vector<double>& seconds) {
  std::printf("  %s legs (s):", what);
  for (double x : seconds) std::printf(" %.4f", x);
  std::printf("\n");
}

/// A workload's set-up time, sampled in groups spread over the run: one
/// group before the first leg and one before every repetition. On a shared
/// host the speed of a core moves by up to 1.7x from one half second to the
/// next, so samples taken in one block would all see the same moment, and
/// their median moved with it from run to run; the legs, seconds long,
/// average it out. A sample is the mean time of `batch` calls of the set-up.
class SetupSampler {
 public:
  SetupSampler(int group, int batch) : group_(group), batch_(batch) {}

  /// Takes one group of samples; `tearDown`, untimed, follows each one.
  void group(const std::function<void()>& setUp, const std::function<void()>& tearDown = {}) {
    for (int i = 0; i < group_; ++i) {
      util::Timer t;
      for (int k = 0; k < batch_; ++k) setUp();
      samples_.push_back(t.seconds() / batch_);
      if (tearDown) tearDown();
    }
  }

  /// Prints the samples' spread and reports their median as setup_s.
  void report(Report& rep) const {
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    std::printf("  setup (s): n=%zu min %.6f q1 %.6f median %.6f q3 %.6f max %.6f\n", n,
                sorted.front(), sorted[n / 4], median(sorted), sorted[3 * n / 4], sorted.back());
    rep.metric("setup_s", "s", median(sorted), n);
  }

 private:
  int group_, batch_;
  std::vector<double> samples_;
};

/// Repetitions are fixed by the budget, not by the clock, so every run of
/// one seed does the same work on any host. A leg gets a share of
/// --seconds and repeats max(2, share / leg-seconds) times, leg-seconds
/// being what one repetition takes on the 4-core reference host, so a run
/// takes about --seconds there. plasma_long gives 2/5 of its budget to the
/// default leg and 3/5 to the native leg: the native leg is the shorter one
/// and varies most from repetition to repetition, so its median needs the
/// most samples.
constexpr double kPlasmaDefaultSeconds = 4.5;
constexpr double kPlasmaNativeSeconds = 3.5;
constexpr double kSweepRepSeconds = 2.0;   // cold leg + 3 warm legs
constexpr double kServeRoundSeconds = 2.5;  // one daemon, kServeRoundCampaigns

int repsFor(double share, double legSeconds) {
  return std::max(2, static_cast<int>(share / legSeconds));
}

/// Set-up samples per group (see SetupSampler) and calls per sample: about a
/// quarter second of set-up work per group. A plasma_long set-up is shorter
/// than a millisecond, so its samples time batches of ten.
constexpr int kPlasmaSetupGroup = 30;
constexpr int kPlasmaSetupBatch = 10;
constexpr int kSweepSetupGroup = 3;
constexpr int kServeSetupGroup = 3;

/// The generated spec as the program receives it: through the spec codec,
/// case studies rebuilt by name (what a worker or a served submission does).
CampaignSpec handOver(const CampaignSpec& spec) {
  return campaign::decodeCampaignSpec(campaign::encodeCampaignSpec(spec));
}

/// Build every item's elaborate+insertion prefix once, serially, before any
/// multi-threaded leg. The sensor-module builders (sensors::buildRazor,
/// sensors::buildCounterMonitor) memoize in unsynchronized function-local
/// maps, so the first concurrent insertions of a process can race on them
/// and crash; once every width a spec needs is memoized, the maps are only
/// read. Untimed, and it leaves no process cache filled.
void primeSensorModules(const CampaignSpec& spec) {
  for (const auto& item : spec.items) core::buildFlowPrefix(item.caseStudy, item.options);
}

void useStore(const fs::path& dir) {
  fs::remove_all(dir);
  util::configureProcessArtifactStore(util::ArtifactStoreConfig{dir.string(), 0, 0});
}

void noStore() { util::configureProcessArtifactStore(std::nullopt); }

std::size_t mutantCount(const CampaignResult& r) {
  std::size_t n = 0;
  for (const auto& it : r.items) n += it.report.analysis.results.size();
  return n;
}

void describe(const char* what, const CampaignResult& r) {
  const std::size_t mutants = mutantCount(r);
  std::printf("  %s: %zu items, %zu mutants, %llu mutant-cycles simulated, %llu skipped, "
              "verdict digest %016llx\n",
              what, r.items.size(), mutants, static_cast<unsigned long long>(r.cyclesSimulated),
              static_cast<unsigned long long>(r.cyclesSkipped),
              static_cast<unsigned long long>(verdictDigest(r)));
}

// --- per-layer bookkeeping of the traced run ----------------------------------

struct LayerExtras {
  double campaignTaskS = 0.0, campaignCapacityS = 0.0, stragglerS = 0.0;
  double overheadS = 0.0;
  std::vector<double> admitMs, firstItemMs, streamMs;
  double workerBusyS = 0.0, workerCapacityS = 0.0;
  double rejects = 0.0, retries = 0.0, requeues = 0.0;

  void campaignLeg(const CampaignResult& r, double wall) {
    for (const auto& it : r.items) {
      campaignTaskS += it.taskSeconds;
      stragglerS = std::max(stragglerS, it.taskSeconds);
    }
    campaignCapacityS += wall * r.threadsUsed;
  }
};

/// Encode and decode a leg's result through the campaign codec (what every
/// shard output and served item crosses) and check the round trip.
void codecRoundTrip(Tracer& tr, Report& rep, const CampaignResult& r) {
  std::string bytes;
  {
    Span s(&tr, "codec.encode");
    bytes = campaign::encodeCampaignResult(r);
  }
  CampaignResult back;
  {
    Span s(&tr, "codec.decode");
    back = campaign::decodeCampaignResult(bytes);
  }
  tr.add("codec.bytes", static_cast<double>(bytes.size()));
  rep.same(r, back, "codec round trip");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double p50(const std::vector<double>& v) { return v.empty() ? 0.0 : median(v); }

void layerMetrics(Report& rep, const Tracer& tr, const LayerExtras& x) {
  std::printf("  per-layer (traced run; 0 = layer not exercised by this workload):\n");
  auto m = [&](const char* name, const char* unit, double v) { rep.metric(name, unit, v, 1); };
  m("flow.elaborate_s", "s", tr.busySeconds("flow.elaborate"));
  m("flow.insertion_s", "s", tr.busySeconds("flow.insertion"));
  m("flow.abstraction_s", "s", tr.busySeconds("flow.abstraction"));
  m("flow.injection_s", "s", tr.busySeconds("flow.injection"));
  m("flow.prefix_hit_ratio", "ratio", ratio(tr.counter("flow.prefix_hits"), tr.counter("flow.items")));
  m("analysis.golden_s", "s", tr.busySeconds("analysis.golden"));
  m("analysis.prepare_s", "s", tr.busySeconds("analysis.prepare"));
  m("analysis.mutant_s", "s", tr.busySeconds("analysis.mutant"));
  const double simulated = tr.counter("analysis.cycles_simulated");
  const double skipped = tr.counter("analysis.cycles_skipped");
  m("analysis.cycles_simulated", "count", simulated);
  m("analysis.cycles_skipped", "count", skipped);
  m("analysis.skip_ratio", "ratio", ratio(skipped, simulated + skipped));
  m("analysis.mutant_cache_hit_ratio", "ratio",
    ratio(tr.counter("analysis.mutant_cache_hits"), tr.counter("analysis.mutants")));
  m("abstraction.interp_ns_per_cycle", "ns/cycle",
    1e9 * ratio(tr.counter("abstraction.interp_mutant_s"), tr.counter("abstraction.interp_cycles")));
  m("abstraction.native_ns_per_cycle", "ns/cycle",
    1e9 * ratio(tr.counter("abstraction.native_mutant_s"), tr.counter("abstraction.native_cycles")));
  m("abstraction.native_compile_s", "s", tr.busySeconds("abstraction.native_compile"));
  m("abstraction.native_compiles", "count", tr.counter("abstraction.native_compiles"));
  m("campaign.busy_share", "ratio", ratio(x.campaignTaskS, x.campaignCapacityS));
  m("campaign.straggler_s", "s", x.stragglerS);
  m("store.load_s", "s", tr.busySeconds("store.load"));
  m("store.hits", "count", tr.counter("store.hits"));
  m("store.stores", "count", tr.counter("store.stores"));
  m("store.bytes", "bytes", tr.counter("store.bytes"));
  m("codec.encode_s", "s", tr.busySeconds("codec.encode"));
  m("codec.decode_s", "s", tr.busySeconds("codec.decode"));
  m("codec.bytes", "bytes", tr.counter("codec.bytes"));
  m("serve.admit_ms_p50", "ms", p50(x.admitMs));
  m("serve.first_item_ms_p50", "ms", p50(x.firstItemMs));
  m("serve.stream_ms_p50", "ms", p50(x.streamMs));
  m("serve.worker_busy_share", "ratio", ratio(x.workerBusyS, x.workerCapacityS));
  m("serve.rejects", "count", x.rejects);
  m("serve.retries", "count", x.retries);
  m("serve.requeues", "count", x.requeues);
  m("trace.overhead_s", "s", x.overheadS);
  std::printf("  self time by span (s):\n");
  for (const auto& [name, s] : tr.selfSeconds()) std::printf("    %-28s %12.6f\n", name.c_str(), s);
}

// --- plasma_long ----------------------------------------------------------------

Report plasmaLong(const BenchArgs& a, Tracer* tr) {
  Report rep;
  CampaignSpec specD, specN;
  SetupSampler setup(kPlasmaSetupGroup, kPlasmaSetupBatch);
  auto setUp = [&] {
    specD = handOver(plasmaLongSpec(a.seed, analysis::SimBackend::Auto));
    specN = handOver(plasmaLongSpec(a.seed, analysis::SimBackend::Native));
  };
  setup.group(setUp);
  primeSensorModules(specD);
  const bool toolchain = abstraction::nativeToolchainAvailable();
  if (!toolchain) {
    std::printf("  native leg: unavailable (no system C++ compiler); not timed\n");
  }
  // A native leg counts only when it did native work — the --require-native
  // rule; a silent interpreter fallback is never timed under the native name.
  auto nativeWorked = [](const CampaignResult& r) {
    return r.nativeCompiles + r.nativeCacheHits > 0;
  };

  if (tr != nullptr) {
    LayerExtras x;
    core::clearProcessCaches();
    const Leg d = timed([&] { return campaign::runCampaign(specD); });
    core::clearProcessCaches();
    const Leg td = timed([&] { return runTracedCampaign(specD, *tr, 0); });
    rep.items(d.result);
    rep.items(td.result);
    rep.same(d.result, td.result, "traced default leg");
    x.campaignLeg(td.result, td.seconds);
    x.overheadS = td.seconds - d.seconds;
    codecRoundTrip(*tr, rep, td.result);
    if (toolchain) {
      core::clearProcessCaches();
      const Leg n = timed([&] { return campaign::runCampaign(specN); });
      core::clearProcessCaches();
      const Leg tn = timed([&] { return runTracedCampaign(specN, *tr, 100); });
      rep.items(n.result);
      rep.items(tn.result);
      rep.same(d.result, n.result, "native leg");
      rep.same(d.result, tn.result, "traced native leg");
      x.campaignLeg(tn.result, tn.seconds);
      x.overheadS += tn.seconds - n.seconds;
      codecRoundTrip(*tr, rep, tn.result);
    }
    describe("default leg", d.result);
    layerMetrics(rep, *tr, x);
    return rep;
  }

  std::vector<double> defaultS, nativeS;
  CampaignResult ref;
  const int defaultReps = repsFor(a.seconds * 0.4, kPlasmaDefaultSeconds);
  const int nativeReps = toolchain ? repsFor(a.seconds * 0.6, kPlasmaNativeSeconds) : 0;
  for (int i = 0; i < std::max(defaultReps, nativeReps); ++i) {
    setup.group(setUp);
    if (i < defaultReps) {
      core::clearProcessCaches();
      const Leg d = timed([&] { return campaign::runCampaign(specD); });
      rep.items(d.result);
      if (i == 0) {
        ref = d.result;
      } else {
        rep.same(ref, d.result, "repeated default leg");
      }
      defaultS.push_back(d.seconds);
    }
    if (i >= nativeReps) continue;
    setup.group(setUp);
    core::clearProcessCaches();
    const Leg n = timed([&] { return campaign::runCampaign(specN); });
    rep.items(n.result);
    rep.same(ref, n.result, "native leg (default == native)");
    if (nativeWorked(n.result)) {
      nativeS.push_back(n.seconds);
    } else if (i == 0) {
      std::printf("  native leg: fell back to the interpreter; not timed\n");
    }
  }
  describe("default leg", ref);
  printLegs("default", defaultS);
  printLegs("native", nativeS);
  setup.report(rep);
  rep.metric("campaign_s", "s", median(defaultS), defaultS.size());
  if (!nativeS.empty()) rep.metric("contrast_s", "s", median(nativeS), nativeS.size());
  rep.metric("peak_rss_mb", "MB", static_cast<double>(selfPeakRssKb()) / 1024.0, 1);
  return rep;
}

// --- sweep_shared -----------------------------------------------------------------

Report sweepShared(const BenchArgs& a, const fs::path& work, Tracer* tr) {
  Report rep;
  CampaignSpec spec;
  SetupSampler setup(kSweepSetupGroup, 1);
  auto setUp = [&] { spec = handOver(sweepSharedSpec(a.seed)); };
  setup.group(setUp);
  primeSensorModules(spec);
  const fs::path store = work / "store";
  auto checkCold = [&](const CampaignResult& c) {
    rep.check(c.prefixCacheHits > 0 && c.mutantCacheHits > 0,
              "sweep cold leg reports no prefix or mutant-cache reuse", 0);
  };
  auto checkWarm = [&](const CampaignResult& cold, const CampaignResult& w) {
    rep.items(w);
    rep.same(cold, w, "warm leg (cold == warm)");
    rep.check(w.cyclesSimulated == 0 && w.diskHits > 0,
              "warm leg simulated again or read nothing from the store",
              static_cast<long>(w.items.size()));
  };

  if (tr != nullptr) {
    LayerExtras x;
    useStore(store);
    core::clearProcessCaches();
    const Leg cold = timed([&] { return campaign::runCampaign(spec); });
    rep.items(cold.result);
    checkCold(cold.result);
    useStore(store);  // empty again for the traced cold leg
    core::clearProcessCaches();
    const Leg tcold = timed([&] { return runTracedCampaign(spec, *tr, 0); });
    rep.items(tcold.result);
    rep.same(cold.result, tcold.result, "traced cold leg");
    core::clearProcessCaches();
    const Leg twarm = timed([&] { return runTracedCampaign(spec, *tr, 1000); });
    rep.items(twarm.result);
    rep.same(cold.result, twarm.result, "traced warm leg");
    noStore();
    fs::remove_all(store);
    x.campaignLeg(tcold.result, tcold.seconds);
    x.campaignLeg(twarm.result, twarm.seconds);
    x.overheadS = tcold.seconds - cold.seconds;
    codecRoundTrip(*tr, rep, tcold.result);
    describe("cold leg", cold.result);
    layerMetrics(rep, *tr, x);
    return rep;
  }

  std::vector<double> coldS, warmS;
  CampaignResult ref;
  const int reps = repsFor(a.seconds, kSweepRepSeconds);
  for (int r = 0; r < reps; ++r) {
    setup.group(setUp);
    useStore(store);
    core::clearProcessCaches();
    const Leg cold = timed([&] { return campaign::runCampaign(spec); });
    rep.items(cold.result);
    checkCold(cold.result);
    if (r == 0) {
      ref = cold.result;
      describe("cold leg", cold.result);
      const std::size_t mutants = mutantCount(cold.result);
      std::printf("  distinct co-simulations in the cold leg: %zu of %zu mutants\n",
                  mutants - static_cast<std::size_t>(cold.result.mutantCacheHits), mutants);
    } else {
      rep.same(ref, cold.result, "repeated cold leg");
    }
    coldS.push_back(cold.seconds);
    for (int w = 0; w < 3; ++w) {
      core::clearProcessCaches();
      const Leg warm = timed([&] { return campaign::runCampaign(spec); });
      checkWarm(cold.result, warm.result);
      warmS.push_back(warm.seconds);
    }
    noStore();
  }
  fs::remove_all(store);
  printLegs("cold", coldS);
  printLegs("warm", warmS);
  setup.report(rep);
  rep.metric("campaign_s", "s", median(coldS), coldS.size());
  rep.metric("contrast_s", "s", median(warmS), warmS.size());
  rep.metric("peak_rss_mb", "MB", static_cast<double>(selfPeakRssKb()) / 1024.0, 1);
  return rep;
}

// --- served_mix -------------------------------------------------------------------

struct Submission {
  std::size_t seq = 0;   ///< position in the mix order
  double latencyS = 0.0; ///< submit to CampaignDoneFrame
  bool ok = false;
  std::string error;
  std::uint64_t retries = 0;
  SubmitTiming timing;
  CampaignResult result;
};

/// Closed loop: kServeClients threads, each submitting its next campaign
/// only when the previous one finished, until `count` campaigns were sent.
std::vector<Submission> closedLoop(std::size_t count,
                                   const std::function<Submission(std::size_t)>& submitOne,
                                   double* wallSeconds) {
  std::atomic<std::size_t> cursor{0};
  std::mutex mu;
  std::vector<Submission> all;
  util::Timer wall;
  auto client = [&] {
    for (;;) {
      const std::size_t seq = cursor.fetch_add(1);
      if (seq >= count) return;
      Submission s = submitOne(seq);
      s.seq = seq;
      std::lock_guard<std::mutex> lock(mu);
      all.push_back(std::move(s));
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kServeClients; ++c) threads.emplace_back(client);
  for (auto& t : threads) t.join();
  *wallSeconds = wall.seconds();
  std::sort(all.begin(), all.end(),
            [](const Submission& x, const Submission& y) { return x.seq < y.seq; });
  return all;
}

double ledgerSum(const std::string& json, const std::string& key) {
  double total = 0.0;
  const std::string needle = "\"" + key + "\": ";
  for (std::size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + 1)) {
    total += std::atof(json.c_str() + pos + needle.size());
  }
  return total;
}

std::string readText(const fs::path& p) {
  std::ifstream in(p);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Checks every submission succeeded, re-submissions agree with their
/// first copy, and (when `local`) the first `kServeLocalChecks` distinct
/// specs match a cold local run (traced when `tr` is set).
void checkServed(Report& rep, const ServedMix& mix, const std::vector<Submission>& subs,
                 bool local, Tracer* tr) {
  std::map<std::size_t, const Submission*> firstOf;
  std::vector<std::size_t> localOrder;
  for (const Submission& s : subs) {
    ++rep.attempted;
    if (!s.ok) {
      rep.check(false, "submission " + std::to_string(s.seq) + " failed: " + s.error, 1);
      continue;
    }
    const std::size_t spec = mix.order[s.seq];
    auto [it, fresh] = firstOf.emplace(spec, &s);
    if (fresh) {
      if (local && localOrder.size() < kServeLocalChecks) localOrder.push_back(spec);
    } else {
      rep.same(it->second->result, s.result, "re-submitted campaign");
    }
  }
  core::clearProcessCaches();
  for (std::size_t spec : localOrder) {
    const CampaignResult localResult =
        tr != nullptr ? runTracedCampaign(mix.specs[spec], *tr, 1000000 + spec)
                      : campaign::runCampaign(mix.specs[spec]);
    rep.items(localResult);
    rep.same(localResult, firstOf[spec]->result, "served vs local runCampaign");
  }
}

Report servedMixRun(const BenchArgs& a, const fs::path& work, Tracer* tr) {
  Report rep;
  const fs::path socket = fs::relative(work / "d.sock");
  const fs::path ledger = work / "ledger.json";
  const std::size_t submissions = tr != nullptr ? kServeTracedCampaigns : kServeRoundCampaigns;
  ServedMix mix;
  std::unique_ptr<Daemon> daemon;
  auto startDaemon = [&] {
    daemon = std::make_unique<Daemon>(XLV_CAMPAIGND_BIN, socket.string(), kServeWorkers,
                                      ledger.string());
    daemon->waitListening(60.0);
    campaign::SubmitOptions so;
    so.socketPath = socket.string();
    const campaign::SubmitOutcome warm = campaign::submitCampaign(servedWarmupSpec(), so);
    if (!warm.done || !warm.error.empty()) {
      throw std::runtime_error("daemon warm-up campaign failed: " + warm.error);
    }
  };
  auto stopDaemon = [&] {
    const int code = daemon->stop();
    daemon.reset();
    rep.check(code == 0, "daemon exited with code " + std::to_string(code), 0);
  };
  auto viaClient = [&](std::size_t seq) {
    campaign::SubmitOptions so;
    so.socketPath = socket.string();
    so.clientName = "e2e_bench";
    Submission s;
    util::Timer t;
    campaign::SubmitOutcome out = campaign::submitCampaign(mix.specs[mix.order[seq]], so);
    s.latencyS = t.seconds();
    s.ok = out.done && out.error.empty() && out.quarantined.empty();
    s.error = out.rejected ? "rejected: " + out.rejectReason : out.error;
    s.retries = out.retries;
    s.result = std::move(out.result);
    return s;
  };

  if (tr != nullptr) {
    mix = servedMix(a.seed, submissions);
    LayerExtras x;
    double untracedWall = 0.0, tracedWall = 0.0;
    startDaemon();
    const auto plain = closedLoop(submissions, viaClient, &untracedWall);
    stopDaemon();
    startDaemon();
    const auto traced = closedLoop(
        submissions,
        [&](std::size_t seq) {
          Submission s;
          util::Timer t;
          s.ok = tracedSubmit(mix.specs[mix.order[seq]], socket.string(), *tr, seq + 1,
                              &s.result, &s.timing, &s.error);
          s.latencyS = t.seconds();
          return s;
        },
        &tracedWall);
    stopDaemon();
    checkServed(rep, mix, plain, false, nullptr);
    checkServed(rep, mix, traced, true, tr);
    for (std::size_t i = 0; i < plain.size() && i < traced.size(); ++i) {
      if (plain[i].ok && traced[i].ok) rep.same(plain[i].result, traced[i].result, "traced submission");
    }
    for (const Submission& s : traced) {
      x.admitMs.push_back(s.timing.acceptMs);
      x.firstItemMs.push_back(s.timing.firstItemMs - s.timing.acceptMs);
      x.streamMs.push_back(s.timing.doneMs - s.timing.firstItemMs);
      for (const auto& it : s.result.items) x.workerBusyS += it.taskSeconds;
      codecRoundTrip(*tr, rep, s.result);
    }
    x.workerCapacityS = tracedWall * kServeWorkers;
    const std::string led = readText(ledger);
    for (const Submission& sub : plain) x.retries += static_cast<double>(sub.retries);
    x.rejects = ledgerSum(led, "campaignsRejected");
    x.requeues = ledgerSum(led, "requeues");
    x.overheadS = tracedWall - untracedWall;
    layerMetrics(rep, *tr, x);
    return rep;
  }

  // Set-up = mix generation + daemon start until its workers have served
  // the warm-up campaign, timed on daemons that serve nothing else. A
  // round's figures are the median and p90 of its window, and the run
  // reports the median over rounds.
  SetupSampler setup(kServeSetupGroup, 1);
  auto setUp = [&] {
    mix = servedMix(a.seed, submissions);
    startDaemon();
  };
  setup.group(setUp, stopDaemon);
  const int rounds = repsFor(a.seconds, kServeRoundSeconds);
  std::vector<double> roundP50, roundP90;
  std::vector<Submission> firstRound;
  std::size_t samples = 0, resubmits = 0;
  std::uint64_t retries = 0;
  double rejects = 0.0, requeues = 0.0, wallSum = 0.0, throughputSum = 0.0;
  long peakKb = 0;
  for (int r = 0; r < rounds; ++r) {
    setup.group(setUp, stopDaemon);
    startDaemon();
    double wall = 0.0;
    std::vector<Submission> subs;
    {
      TreeRssSampler rss(daemon->pid());
      subs = closedLoop(submissions, viaClient, &wall);
      peakKb = std::max(peakKb, rss.peakKb());
    }
    stopDaemon();
    wallSum += wall;
    const std::string led = readText(ledger);
    rejects += ledgerSum(led, "campaignsRejected");
    requeues += ledgerSum(led, "requeues");
    checkServed(rep, mix, subs, r == 0, nullptr);
    std::vector<double> latency;
    std::vector<bool> seen(mix.specs.size(), false);
    for (const Submission& sub : subs) {
      if (sub.ok && sub.seq >= subs.size() / kServeWarmupShare) latency.push_back(sub.latencyS);
      retries += sub.retries;
      resubmits += seen[mix.order[sub.seq]] ? 1 : 0;
      seen[mix.order[sub.seq]] = true;
      if (r > 0 && sub.ok && firstRound[sub.seq].ok) {
        rep.same(firstRound[sub.seq].result, sub.result, "repeated served round");
      }
    }
    if (r == 0) firstRound = std::move(subs);
    const auto p90 = reportablePercentile(latency, 0.9);
    if (!p90) {
      rep.check(false, "too few served campaigns for a p90 with 10 samples beyond it", 0);
      continue;
    }
    samples += latency.size();
    roundP50.push_back(median(latency));
    roundP90.push_back(*p90);
    // Closed loop with no think time: throughput = clients / mean latency.
    double latencySum = 0.0;
    for (double l : latency) latencySum += l;
    throughputSum += kServeClients * static_cast<double>(latency.size()) / latencySum;
  }
  std::printf("  %d rounds x %zu campaigns (%.2f s serving) from %d closed-loop clients on %d "
              "workers (%zu re-submissions), %llu retries, %.0f rejects, %.0f requeues\n",
              rounds, submissions, wallSum, kServeClients, kServeWorkers, resubmits,
              static_cast<unsigned long long>(retries), rejects, requeues);
  printLegs("round p50", roundP50);
  printLegs("round p90", roundP90);
  std::printf("  campaigns_per_s %.3f (closed loop: %d clients / mean latency, mean of rounds)\n",
              throughputSum / rounds, kServeClients);
  setup.report(rep);
  if (!roundP50.empty()) {
    rep.metric("campaign_s", "s", median(roundP50), samples);
    rep.metric("contrast_s", "s", median(roundP90), samples);
  }
  rep.metric("peak_rss_mb", "MB", static_cast<double>(peakKb) / 1024.0, 1);
  return rep;
}

void printJson(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              r.correct ? "true" : "false", std::max(1L, r.attempted), r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                r.metrics[i].name.c_str(), r.metrics[i].value, r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args;
  try {
    args = parseBenchArgs(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const KnobError& e) {
    std::fprintf(stderr, "xlv_e2e_bench: %s\n", e.what());
    return 2;
  }
  // Shipped defaults: no XLV_* knob from the caller's environment reaches
  // the program (thread and worker counts are pinned in the specs).
  for (const char* knob : {"XLV_BACKEND", "XLV_BATCH", "XLV_THREADS", "XLV_WORKERS",
                           "XLV_REFERENCE_SIM", "XLV_FAULTS", "XLV_CC"}) {
    ::unsetenv(knob);
  }
  const fs::path work = fs::absolute(".bench_work") / ("run-" + std::to_string(::getpid()));
  fs::create_directories(work / "tmp");
  ::setenv("TMPDIR", (work / "tmp").c_str(), 1);

  const std::string& w = args.workload;
  Report report;
  Tracer tracer;
  Tracer* tr = args.trace ? &tracer : nullptr;
  int status = 0;
  try {
    std::printf("== %s (seed %llu, %ds budget, %s)\n", w.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? "traced" : "timed");
    std::fflush(stdout);
    report = w == "plasma_long"    ? plasmaLong(args, tr)
            : w == "sweep_shared" ? sweepShared(args, work, tr)
                                  : servedMixRun(args, work, tr);
    const double failedShare =
        report.attempted > 0 ? static_cast<double>(report.failed) / report.attempted : 0.0;
    std::printf("  ops: %ld attempted, %ld failed (failed_share %.6f)\n", report.attempted,
                report.failed, failedShare);
    if (tr != nullptr) {
      const std::string out = args.traceOut.empty()
                                  ? (work.parent_path() / ("e2e_trace_" + w + ".json")).string()
                                  : args.traceOut;
      std::string error;
      if (!tracer.writeChromeTrace(out, &error)) {
        std::fprintf(stderr, "xlv_e2e_bench: trace not written: %s\n", error.c_str());
        status = 2;
      } else {
        std::printf("trace: %s (%zu spans; open in https://ui.perfetto.dev or chrome://tracing)\n",
                    out.c_str(), tracer.spans().size());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xlv_e2e_bench: %s\n", e.what());
    status = 2;
  }
  std::error_code ec;
  fs::remove_all(work, ec);
  if (status != 0) return status;
  std::fflush(stderr);
  printJson(report);
  return report.correct ? 0 : 1;
}
