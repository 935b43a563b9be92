// Mutation analysis of sensor-augmented TLM models (paper Section 7).
//
// For each injected mutant, the injected TLM model (with exactly that mutant
// active) is simulated against the golden (non-injected) TLM model under the
// same testbench. Per mutant we classify:
//
//   * killed      — any top-level output differed in any cycle (the sensor
//                   outputs are part of the augmented IP's interface, so a
//                   raised error flag kills the mutant, as in the paper);
//   * detected    — the sensor at the mutant's endpoint observed the delay
//                   (Razor: E raised; Counter: MEAS_VAL != 0);
//   * errorRisen  — the sensor *notified* an error (Razor: E raised;
//                   Counter: OUT_OK deasserted, i.e. measured delay above
//                   the LUT threshold — delays below it are tolerable);
//   * corrected   — Razor only: during every error cycle, the recovery
//                   output q presented the golden endpoint value of the
//                   previous cycle (the paper's "correction of output values
//                   with some clock cycles of delay").
//
// The mutation score is killed / total (all delay mutants are
// non-equivalent by construction when the testbench toggles the monitored
// registers).
//
// Execution model: the analysis is a mutation *campaign*. The injected
// design is compiled and levelized once into a shared TlmModelLayout (and,
// on the native backend, compiled once into one shared library); every run
// of the campaign is a private session over it. The golden trace is
// recorded once on that layout with no mutant active — inactive mutants
// commit at the normal edge, so that run is the golden run — and shared
// read-only; then one independent task per mutant instantiates a session
// and simulates it against the trace. Tasks are scheduled by the
// campaign executor (campaign/executor.h); results land in pre-assigned
// slots (merge in task-id order), so the report is bit-identical to the
// serial path — excluding the timing fields — at any thread count, and
// threads = 1 is byte-for-byte today's serial flow.
//
// Fault collapsing: mutants of one class (same target, phase points with
// only a combinational sweep between them — abstraction::mutantClassSpec)
// behave bit-identically. Only the first member of each class within the
// analysed range, its representative, is simulated (tasks batch
// representatives); every other member copies the representative's result
// with its own id, kind and deltaTicks. simulateMutant, the one-mutant
// entry point, collapses the same way per context: a mutant whose class
// the context already simulated copies that result. Under
// XLV_REFERENCE_SIM=1 every mutant is its own representative, so the
// reference path simulates every member and pins class == member.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "abstraction/native_backend.h"
#include "abstraction/tlm_model.h"
#include "analysis/checkpoint_cache.h"
#include "analysis/testbench.h"
#include "insertion/insertion.h"
#include "mutation/adam.h"
#include "util/mapped_words.h"

namespace xlv::analysis {

/// Simulation engine for every run of a campaign (golden recording,
/// checkpoint recording, per-mutant co-simulations). The two engines are
/// bit-identical — the conformance suite pins sameResults across them — so
/// the choice is purely a wall-time knob.
enum class SimBackend {
  /// Defer to the XLV_BACKEND environment variable ("native" or
  /// "interpreter"); interpreter when unset.
  Auto = 0,
  /// The in-process ScalarMachine interpreter (always available).
  Interpreter = 1,
  /// Emitted C++ compiled by the system compiler and dlopen'd
  /// (abstraction/native_backend.h). Falls back to the interpreter when no
  /// toolchain is available or the compile fails (warned once per design).
  Native = 2,
};

/// Canonical names ("auto" / "interpreter" / "native") — the CLI flag and
/// serialization vocabulary.
const char* simBackendName(SimBackend b) noexcept;
/// Every backend, for readers that find a backend by its name.
inline constexpr SimBackend kSimBackends[] = {SimBackend::Auto, SimBackend::Interpreter,
                                              SimBackend::Native};
/// Inverse of simBackendName; throws std::invalid_argument on anything else.
SimBackend simBackendFromName(std::string_view name);
/// Resolve Auto against the XLV_BACKEND environment variable (one env read
/// per call; campaigns resolve once at prepare time). Unset, empty or
/// "auto" means the interpreter; a name simBackendFromName rejects throws
/// std::invalid_argument.
SimBackend resolveSimBackend(SimBackend requested);
/// Resolve a batch size: values >= 1 pass through; 0 defers to the
/// XLV_BATCH environment variable (a positive integer, strictly parsed —
/// util::envLongStrict), defaulting to 1 (no batching).
int resolveBatchSize(int requested);

struct MutantResult {
  int id = -1;
  std::string endpoint;
  mutation::MutantKind kind = mutation::MutantKind::MinDelay;
  int deltaTicks = 0;
  bool killed = false;
  bool detected = false;
  bool errorRisen = false;
  bool corrected = false;       ///< meaningful only when correctionChecked
  bool correctionChecked = false;
  std::uint64_t measuredDelay = 0;  ///< Counter: max MEAS_VAL over the run

  /// Full-field equality — MutantResult carries no timing, so this is the
  /// per-mutant bit-identity check the determinism tests and benches share.
  bool operator==(const MutantResult&) const = default;
};

/// The work ledger: the six counters of a mutation campaign's work, declared
/// once and summed by one operator+= — from one co-simulation
/// (simulateMutant's out-parameter) through an analysis (AnalysisReport,
/// which derives from it) to a merged campaign (campaign::CampaignResult).
/// Ledgers, not verdicts: sameResults ignores them. (No operator== on
/// purpose: the reports deriving from it would inherit a comparison that
/// ignores their results.)
struct WorkLedger {
  /// Scheduler transactions the co-simulations actually executed versus
  /// transactions the divergence-driven fast path proved unnecessary
  /// (checkpoint fast-forward over the pre-divergence prefix, verdict
  /// saturation over the tail). For one fresh co-simulation, simulated +
  /// skipped == the testbench length.
  std::uint64_t cyclesSimulated = 0;
  std::uint64_t cyclesSkipped = 0;
  /// Mutant results taken from the per-mutant result cache
  /// (analysis/mutant_cache.h) instead of a co-simulation of their own;
  /// every mutant on a fully warm run.
  int mutantCacheHits = 0;
  /// Native shared-library compiles performed versus libraries served from
  /// the in-process or artifact-store cache; both 0 on the interpreter and
  /// after a silent fallback to it (what --require-native rejects).
  int nativeCompiles = 0;
  int nativeCacheHits = 0;
  /// Mutants whose fresh co-simulation ran lock-step in a batch of two or
  /// more live members (AnalysisConfig::batch); 0 when batching is off.
  int batchedMutants = 0;

  WorkLedger& operator+=(const WorkLedger& o) noexcept {
    cyclesSimulated += o.cyclesSimulated;
    cyclesSkipped += o.cyclesSkipped;
    mutantCacheHits += o.mutantCacheHits;
    nativeCompiles += o.nativeCompiles;
    nativeCacheHits += o.nativeCacheHits;
    batchedMutants += o.batchedMutants;
    return *this;
  }
};

/// The ledger of one simulateMutant call.
using MutantSimStats = WorkLedger;

/// An analysis's results and its work ledger (the WorkLedger base), which
/// is prepare's (the native library), plus one ledger per mutant, plus the
/// once-per-campaign checkpoint recording run (cycles simulated, charged
/// only by the campaign that performed it — it exists to serve the mutant
/// loop). Per mutant:
///   * a representative simulated here charges its own run;
///   * a representative served by the mutant cache (memory or disk) is a
///     cache hit and charges no cycles;
///   * a class member with the mutant cache on is a cache hit and charges
///     no cycles — its class's entry is the one its representative just
///     filled or found — so no total depends on which item of a sweep
///     simulated a shared class, and a cold campaign's mutants − hits are
///     the co-simulations it ran;
///   * a class member with the cache off charges its whole run as skipped,
///     so simulated + skipped stays the testbench length per mutant.
/// Under XLV_REFERENCE_SIM=1 every mutant is simulated: nothing is
/// skipped, and cycles simulated == results * cyclesPerRun.
struct AnalysisReport : WorkLedger {
  std::vector<MutantResult> results;
  std::uint64_t cyclesPerRun = 0;
  /// Simulation work: sum of per-run wall times (golden + every injected
  /// run). Equals wallSeconds on one thread, exceeds it under parallel
  /// execution. Per-run times are wall clock, so oversubscription (threads
  /// beyond available cores) inflates this with timeslice waits.
  double simSeconds = 0.0;
  /// Elapsed wall time of the whole analysis (what a user waits for).
  double wallSeconds = 0.0;
  /// Golden-trace recording time charged to this analysis: the actual
  /// recording when this run performed it, exactly 0 on a cache hit (a
  /// waiter blocked on another task's in-flight recording is not charged —
  /// its wait lands in wallSeconds). The component the cache saves;
  /// thread-count independent in meaning.
  double goldenSeconds = 0.0;
  /// True when the golden trace came from the process-wide cache
  /// (AnalysisConfig::useGoldenCache) instead of a fresh recording.
  bool goldenFromCache = false;
  /// True when the golden trace was loaded from the cross-process artifact
  /// store (util/artifact_store.h) rather than recorded or found in memory.
  bool goldenFromDisk = false;
  /// Workers the per-mutant tasks could run on: the enclosing campaign
  /// pool's size when the analysis runs inside a campaign item, else
  /// AnalysisConfig::threads — capped at the task count.
  int threadsUsed = 1;

  /// Deterministic-content equality: per-mutant results and cycle budget,
  /// ignoring the timing/threading/cache fields. The single comparator
  /// behind every "bit-identical across thread counts / cache modes" check.
  bool sameResults(const AnalysisReport& other) const noexcept {
    return cyclesPerRun == other.cyclesPerRun && results == other.results;
  }

  int total() const noexcept { return static_cast<int>(results.size()); }
  int countKilled() const noexcept;
  int countRisen() const noexcept;
  int countDetected() const noexcept;
  /// Percentages as reported in Table 5.
  double killedPct() const noexcept;
  double risenPct() const noexcept;
  /// Corrected percentage over correction-checked mutants; -1 when the
  /// sensor has no correction capability ("n.a." in Table 5).
  double correctedPct() const noexcept;
  double mutationScorePct() const noexcept { return killedPct(); }
};

struct AnalysisConfig {
  int hfRatio = 0;  ///< dual-clock scheduler ratio for Counter designs
  insertion::SensorKind sensorKind = insertion::SensorKind::Razor;
  /// Worker threads for the per-mutant campaign: 1 = serial (today's
  /// behavior), 0 = auto (XLV_THREADS env override, else hardware
  /// concurrency), n > 1 = exactly n. Ignored when the analysis runs inside
  /// an executor task, such as a campaign item: its mutant tasks then join
  /// the enclosing pool (campaign/executor.h, nested runs).
  int threads = 1;
  /// Stimulus identity for stateful testbenches: every run (golden and each
  /// mutant) uses a fresh driver from Testbench::driverForTask(stimulusId),
  /// so all runs replay the identical stimulus from independent sessions.
  std::uint64_t stimulusId = 0;
  /// Share the golden trace through the process-wide cache
  /// (analysis/golden_cache.h): analyses keyed identically — same design
  /// identity, endpoints, testbench, cycles, hfRatio — reuse one recording.
  /// The shared trace is immutable, so the report stays bit-identical with
  /// the cache on or off; only goldenSeconds/simSeconds shrink on a hit.
  bool useGoldenCache = false;
  /// Reuse per-mutant results through the process-wide cache
  /// (analysis/mutant_cache.h): mutants whose (design identity, mutant
  /// class, testbench identity) agree — e.g. the same mutant under another
  /// mutant-set variant, Razor's MaxDelay mutant after its endpoint's
  /// MinDelay mutant, or a re-run of an identical analysis — skip the
  /// co-simulation. Each class representative is looked up under its
  /// class's canonical spec; id, kind and deltaTicks are fixed up per
  /// injected set, so the report stays bit-identical with the cache on or
  /// off.
  bool useMutantCache = false;
  /// Simulate only injected-mutant indices [mutantBegin, mutantEnd), clamped
  /// to the injected set; mutantEnd == 0 means "to the end". The report's
  /// results are exactly that subrange in index order with their global ids,
  /// so concatenating adjacent subrange reports reproduces the full run —
  /// the contract process-level shard fragments rely on.
  std::size_t mutantBegin = 0;
  std::size_t mutantEnd = 0;
  /// Simulation engine for every run of this campaign (golden recording,
  /// checkpoints, mutant co-simulations). Auto defers to XLV_BACKEND.
  /// Results are bit-identical across backends; only timing ledgers move.
  SimBackend backend = SimBackend::Auto;
  /// Mutants per co-simulation task: K sessions march lock-step against ONE
  /// shared stimulus replay, amortizing the testbench driver across the
  /// batch. 1 = today's one-mutant-per-task behavior; 0 defers to XLV_BATCH
  /// (default 1). Results and per-mutant cycle ledgers are bit-identical at
  /// any K — members fast-forward and saturate individually.
  int batch = 0;
};

/// Golden trajectory: per cycle, the output-port values and the monitored
/// endpoint register values (for the correction check). Recorded once per
/// analysis and shared read-only across all mutant tasks.
///
/// v3 additionally records, per sensor, the first cycle a mutant at that
/// endpoint may NOT be fast-forwarded past: the minimum of (a) the first
/// cycle the endpoint register's committed value changes (full value+unknown
/// planes — a delay mutant is behaviorally transparent until its target's
/// first value-changing commit, because a no-change commit is phase
/// invariant) and (b) the first cycle the golden run itself trips one of the
/// sensor-observation predicates the mutant loop evaluates (E == 1,
/// MEAS_VAL != 0, OUT_OK == 0) — before that cycle the mutant run's state is
/// bit-identical to the golden run's, so the skipped prefix provably
/// contributes nothing to the MutantResult. A value of `cycles` means
/// the whole run is quiet for that endpoint (the mutant is transparent end
/// to end and needs no simulation at all).
///
/// Both tables are flat and row-major, one row per cycle, in mappings of
/// their own (util/mapped_words.h): a freed trace goes back to the OS
/// instead of into a worker thread's malloc arena.
struct GoldenTrace {
  std::size_t cycles = 0;
  std::size_t outWidth = 0;  ///< output ports per row
  std::size_t epWidth = 0;   ///< sensor endpoints per row
  util::MappedWords outputs;                 ///< [cycle × outWidth]
  util::MappedWords endpoints;               ///< [cycle × epWidth]
  std::vector<std::uint64_t> firstActivity;  ///< [sensorIdx]

  const std::uint64_t* outputRow(std::size_t cycle) const noexcept {
    return outputs.data() + cycle * outWidth;
  }
  std::uint64_t endpoint(std::size_t cycle, std::size_t sensorIdx) const noexcept {
    return endpoints[cycle * epWidth + sensorIdx];
  }
};

/// Record the golden trajectory of `golden` on the backend cfg.backend
/// resolves to (native falls back to the interpreter when unavailable):
/// builds a no-mutant layout of `golden` and runs the same recording loop
/// prepareMutationCampaign runs on its injected layout, so both produce the
/// same trace. `nativeStats`, when non-null, receives the native-library
/// compile/cache ledger of this recording.
template <class P>
GoldenTrace recordGoldenTrace(const ir::Design& golden,
                              const std::vector<insertion::InsertedSensor>& sensors,
                              const Testbench& tb, const AnalysisConfig& cfg,
                              abstraction::NativeUseStats* nativeStats = nullptr);

/// True when the XLV_REFERENCE_SIM environment variable is "1" (unset, empty
/// and "0" mean off; anything else throws std::invalid_argument):
/// every mutant replays the full testbench from reset (no checkpoint
/// fast-forward, no verdict-saturation early exit). The reference path the
/// conformance suite and the CI Release leg diff the fast path against;
/// results are bit-identical either way, only the cycle ledgers move.
bool referenceSimMode();

/// Campaign checkpoint store: periodic state snapshots of the injected
/// layout simulated with NO active mutant (the golden trajectory, the run
/// the golden trace was recorded from), letting each mutant task restore the
/// last checkpoint at or before its fast-forward limit instead of
/// re-simulating from reset. Recorded lazily, exactly once per campaign, by
/// the first task whose limit clears the checkpoint interval — a campaign
/// whose mutants all come from the result cache (or all diverge in the
/// first interval) never pays for it. Snapshots are layout-specific session
/// state, so they live in the campaign context, not in the cross-variant
/// golden-trace cache.
struct CampaignCheckpoints {
  /// Held while recording: the first caller records, the others wait. A
  /// recording that throws leaves `rec` null and `recorded` false, so the
  /// next caller records again. (A mutex, not std::call_once: call_once
  /// cannot re-run a callable that threw under ThreadSanitizer.)
  std::mutex mu;
  /// The recording (analysis/checkpoint_cache.h), in the engine-neutral
  /// snapshot word layout so interpreter and native sessions restore the
  /// same bytes. Null until recorded; possibly shared with other campaigns
  /// through the checkpoint cache.
  std::shared_ptr<const CheckpointRecording> rec;
  /// True when `rec` was served by the cross-campaign cache (memory or
  /// artifact store): its recordedCycles were charged by the campaign that
  /// recorded it, so this one charges 0 (a ledger, like goldenSeconds).
  bool fromCache = false;
  std::atomic<bool> recorded{false};
};

/// The results simulateMutant produced on one context, one per mutant
/// class (keyed by abstraction::mutantClassSpec), so a later member of the
/// class copies its result instead of simulating again.
struct MutantClassResults {
  std::mutex mu;
  std::map<mutation::MutantSpec, MutantResult> byClass;
};

/// The shared read-only context of one mutation campaign: everything a
/// per-mutant task needs that is derived once, not per mutant.
struct MutationCampaignContext {
  /// The injected design, compiled once: the only layout of the campaign
  /// (golden recording, checkpoints and mutant tasks all run on it).
  abstraction::TlmModelLayoutPtr layout;
  /// Immutable, possibly cache-shared across analyses (never null after
  /// prepareMutationCampaign).
  std::shared_ptr<const GoldenTrace> gold;
  std::vector<insertion::InsertedSensor> sensors;
  Testbench tb;
  AnalysisConfig cfg;
  bool hasRecovery = false;
  /// Recovery port symbol in the injected design (kNoSymbol when absent),
  /// resolved once so the cycle loop never re-hashes the port name.
  ir::SymbolId recoverySym = ir::kNoSymbol;
  double goldenSeconds = 0.0;  ///< time spent obtaining the trace
  bool goldenFromCache = false;
  bool goldenFromDisk = false;  ///< trace loaded from the artifact store
  /// The golden-trace key of this campaign (also the per-mutant cache key
  /// prefix); empty when neither cache is enabled.
  std::string goldenKey;
  /// Snapshot of referenceSimMode() at prepare time (one env read per
  /// campaign, every task agrees on the mode).
  bool referenceSim = false;
  /// Cycle stride between checkpoints (>= 1; ~1/16 of the testbench).
  std::uint64_t checkpointInterval = 1;
  /// Lazily recorded checkpoint store (never null after prepare; shared so
  /// the context stays movable).
  std::shared_ptr<CampaignCheckpoints> checkpoints;
  /// simulateMutant's per-class results (never null after prepare; shared
  /// so the context stays movable; unused under XLV_REFERENCE_SIM=1).
  std::shared_ptr<MutantClassResults> classResults;
  /// Resolved simulation engine: the dlopen'd library every campaign run
  /// shares (null = interpreter, either by choice or by fallback).
  abstraction::NativeLibraryPtr nativeLib;
  /// Resolved batch size (>= 1; AnalysisConfig::batch after XLV_BATCH).
  int batch = 1;
  /// Prepare's share of the report's ledger: acquiring the one native
  /// library of the injected layout, so at most one compile (or one cache
  /// hit) per campaign.
  WorkLedger prepareLedger;
};

/// Build the shared context: the compiled injected layout (and its native
/// library), then the golden trace recorded on it with no mutant active.
template <class P>
MutationCampaignContext prepareMutationCampaign(
    const ir::Design& golden, const mutation::InjectedDesign& injected,
    const std::vector<insertion::InsertedSensor>& sensors, const Testbench& tb,
    const AnalysisConfig& cfg);

/// One campaign task: simulate mutant `mutantIndex` on a private session
/// cloned from the shared layout. Thread-safe for distinct indices (the
/// lazy checkpoint recording serializes through the context's mutex).
///
/// Fast path (default): the task restores the last campaign checkpoint at
/// or before the mutant's fast-forward limit (GoldenTrace::firstActivity —
/// the prefix where the mutant is provably transparent), then stops the
/// cycle loop as soon as the verdict saturates — every MutantResult field
/// is sticky or structurally pinned, so later cycles cannot change it (see
/// the saturation predicate in mutation_analysis.cpp). Under
/// XLV_REFERENCE_SIM=1 the full testbench replays from reset. Both paths
/// return bit-identical results; `stats`, when non-null, has this mutant's
/// executed-vs-skipped cycles added to it.
///
/// The fast path also collapses classes: once the context has simulated a
/// mutant of this one's class, the result is a copy with this mutant's id,
/// kind and deltaTicks, charged as a whole run skipped — the charge
/// analyzeMutations gives a class member with the mutant cache off (this
/// function does not use that cache). (Two members simulated at the same
/// time may both run; their results are identical.)
template <class P>
MutantResult simulateMutant(const MutationCampaignContext& ctx, int mutantIndex,
                            MutantSimStats* stats = nullptr);

/// Run the full analysis: one golden run plus one injected run per mutant
/// class representative (see "Fault collapsing" above), scheduled on
/// cfg.threads workers (see AnalysisConfig::threads).
///
/// With cfg.useMutantCache the task list runs in two passes. Pass 1 serves
/// every representative whose key is free (simulated, a miss) or built (a
/// hit), and sets aside one that another thread is simulating right now,
/// without waiting for it. Pass 2 runs only the tasks that set something
/// aside and waits for those keys, which are hits by then (or are built
/// there, if their builder threw). A set-aside representative therefore
/// counts as a cache hit, as a waiter would, and a cold campaign's
/// mutants − mutantCacheHits stays the co-simulations it ran.
template <class P>
AnalysisReport analyzeMutations(const ir::Design& golden,
                                const mutation::InjectedDesign& injected,
                                const std::vector<insertion::InsertedSensor>& sensors,
                                const Testbench& tb, const AnalysisConfig& cfg);

// Explicit instantiations are provided for both value policies.
extern template GoldenTrace recordGoldenTrace<hdt::FourState>(
    const ir::Design&, const std::vector<insertion::InsertedSensor>&, const Testbench&,
    const AnalysisConfig&, abstraction::NativeUseStats*);
extern template GoldenTrace recordGoldenTrace<hdt::TwoState>(
    const ir::Design&, const std::vector<insertion::InsertedSensor>&, const Testbench&,
    const AnalysisConfig&, abstraction::NativeUseStats*);
extern template MutationCampaignContext prepareMutationCampaign<hdt::FourState>(
    const ir::Design&, const mutation::InjectedDesign&,
    const std::vector<insertion::InsertedSensor>&, const Testbench&, const AnalysisConfig&);
extern template MutationCampaignContext prepareMutationCampaign<hdt::TwoState>(
    const ir::Design&, const mutation::InjectedDesign&,
    const std::vector<insertion::InsertedSensor>&, const Testbench&, const AnalysisConfig&);
extern template MutantResult simulateMutant<hdt::FourState>(const MutationCampaignContext&,
                                                            int, MutantSimStats*);
extern template MutantResult simulateMutant<hdt::TwoState>(const MutationCampaignContext&,
                                                           int, MutantSimStats*);
extern template AnalysisReport analyzeMutations<hdt::FourState>(
    const ir::Design&, const mutation::InjectedDesign&,
    const std::vector<insertion::InsertedSensor>&, const Testbench&, const AnalysisConfig&);
extern template AnalysisReport analyzeMutations<hdt::TwoState>(
    const ir::Design&, const mutation::InjectedDesign&,
    const std::vector<insertion::InsertedSensor>&, const Testbench&, const AnalysisConfig&);

/// Generate the Table 5 mutant sets.
/// Razor versions: one MinDelay plus one MaxDelay mutant per sensor.
std::vector<mutation::MutantSpec> razorMutantSet(
    const std::vector<insertion::InsertedSensor>& sensors);
/// Counter versions: three DeltaDelay mutants per sensor, sized from the
/// endpoint's STA arrival relative to the 75th percentile p75 of the
/// monitored arrivals: tick = clamp(round(R * min(1.25, arrival/p75) * f),
/// 1, R) for f in {0.8, 1.2, 1.6} — modeling nominal, derated and
/// worst-case lateness of that path. `clockPeriodPs` is not used.
std::vector<mutation::MutantSpec> counterMutantSet(
    const std::vector<insertion::InsertedSensor>& sensors, double clockPeriodPs, int hfRatio);

}  // namespace xlv::analysis
