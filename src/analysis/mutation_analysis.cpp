#include "analysis/mutation_analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "analysis/golden_cache.h"
#include "analysis/mutant_cache.h"
#include "campaign/executor.h"
#include "util/artifact_store.h"
#include "util/env.h"
#include "util/timer.h"

namespace xlv::analysis {

using abstraction::SV;
using abstraction::TlmIpModel;
using abstraction::TlmModelConfig;
using insertion::InsertedSensor;
using insertion::SensorKind;
using mutation::InjectedDesign;
using mutation::MutantKind;

bool referenceSimMode() { return util::envLongStrict("XLV_REFERENCE_SIM", 0, 0, 1) == 1; }

const char* simBackendName(SimBackend b) noexcept {
  switch (b) {
    case SimBackend::Interpreter:
      return "interpreter";
    case SimBackend::Native:
      return "native";
    case SimBackend::Auto:
      break;
  }
  return "auto";
}

SimBackend simBackendFromName(std::string_view name) {
  if (name == "auto") return SimBackend::Auto;
  if (name == "interpreter") return SimBackend::Interpreter;
  if (name == "native") return SimBackend::Native;
  throw std::invalid_argument("unknown simulation backend '" + std::string(name) +
                              "' (expected auto, interpreter or native)");
}

SimBackend resolveSimBackend(SimBackend requested) {
  if (requested != SimBackend::Auto) return requested;
  if (const char* v = std::getenv("XLV_BACKEND"); v != nullptr && *v != '\0') {
    SimBackend b = SimBackend::Auto;
    try {
      b = simBackendFromName(v);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string("XLV_BACKEND: ") + e.what());
    }
    if (b != SimBackend::Auto) return b;
  }
  return SimBackend::Interpreter;
}

int resolveBatchSize(int requested) {
  if (requested >= 1) return requested;
  return static_cast<int>(util::envLongStrict("XLV_BATCH", 1, 1, INT_MAX));
}

namespace {

/// One campaign run's simulation session, on whichever engine the campaign
/// resolved to: a private TlmIpModel when `lib` is null, a dlopen'd native
/// session otherwise. The two are bit-identical (the conformance suite pins
/// it), so everything above this wrapper is engine-agnostic. Both engines
/// save and load their state in the shared snapshot word layout
/// (abstraction/tlm_model.h).
template <class P>
class Session {
 public:
  Session(const abstraction::TlmModelLayoutPtr& layout,
          const abstraction::NativeLibraryPtr& lib)
      : layout_(layout) {
    if (lib != nullptr) {
      native_ = std::make_unique<abstraction::NativeSession>(lib);
    } else {
      interp_ = std::make_unique<TlmIpModel<P>>(layout);
    }
  }

  const ir::Design& design() const noexcept { return layout_->design; }
  void activateMutant(int id) {
    native_ ? native_->activateMutant(id) : interp_->activateMutant(id);
  }
  void setInputUint(ir::SymbolId sym, std::uint64_t v) {
    native_ ? native_->setInputUint(sym, v) : interp_->setInputUint(sym, v);
  }
  void scheduler() { native_ ? native_->scheduler() : interp_->scheduler(); }
  std::uint64_t valueUint(ir::SymbolId sym) const {
    return native_ ? native_->valueUint(sym) : interp_->valueUint(sym);
  }
  SV rawValue(ir::SymbolId sym) const {
    return native_ ? native_->rawValue(sym) : interp_->rawValue(sym);
  }
  void saveWords(std::vector<std::uint64_t>& out) const {
    native_ ? native_->saveWords(out) : interp_->saveWords(out);
  }
  void loadWords(const std::vector<std::uint64_t>& words) {
    native_ ? native_->loadWords(words) : interp_->loadWords(words);
  }

 private:
  abstraction::TlmModelLayoutPtr layout_;
  std::unique_ptr<TlmIpModel<P>> interp_;
  std::unique_ptr<abstraction::NativeSession> native_;
};

/// De-stringed stimulus sink: the testbench driver runs ONCE per cycle into
/// this recorder, which resolves each driven port name to its SymbolId on
/// first use (one name lookup per (run, port), not per (cycle, port)) and
/// captures the cycle's (symbol, value) row. replayInto() pushes the row
/// through the boxing-free setInputUint of one model — or of every live
/// batch member: K mutants, one driver pass.
class DriveRecorder {
 public:
  explicit DriveRecorder(const ir::Design& design)
      : design_(&design),
        setter_([this](const std::string& name, std::uint64_t v) { record(name, v); }) {}
  DriveRecorder(const DriveRecorder&) = delete;  // setter_ captures `this`
  DriveRecorder& operator=(const DriveRecorder&) = delete;

  /// Run the driver for `cycle`, replacing the captured row.
  void capture(const DriveFn& drive, std::uint64_t cycle) {
    row_.clear();
    drive(cycle, setter_);
  }
  /// M is any model with setInputUint (TlmIpModel or Session).
  template <class M>
  void replayInto(M& model) const {
    for (const auto& [sym, v] : row_) model.setInputUint(sym, v);
  }

 private:
  void record(const std::string& name, std::uint64_t v) {
    auto it = ids_.find(name);
    if (it == ids_.end()) {
      const ir::SymbolId sym = design_->findSymbol(name);
      if (sym == ir::kNoSymbol) {
        throw std::invalid_argument("TlmIpModel: no symbol named '" + name + "'");
      }
      it = ids_.emplace(name, sym).first;
    }
    row_.emplace_back(it->second, v);
  }

  const ir::Design* design_;
  PortSetter setter_;
  std::unordered_map<std::string, ir::SymbolId> ids_;
  std::vector<std::pair<ir::SymbolId, std::uint64_t>> row_;
};

/// Clamp the requested mutant subrange (AnalysisConfig::mutantBegin/End)
/// to the injected set; the default 0/0 selects every mutant. The ONE
/// range rule shared by the task scheduler and the checkpoint recorder —
/// a desync would silently mis-size the recording run.
std::pair<std::size_t, std::size_t> clampMutantRange(const AnalysisConfig& cfg,
                                                     std::size_t total) {
  const std::size_t begin = std::min(cfg.mutantBegin, total);
  const std::size_t end =
      std::max(begin, cfg.mutantEnd == 0 ? total : std::min(cfg.mutantEnd, total));
  return {begin, end};
}

/// `r` as the result of `mutant`: its id, kind and deltaTicks — the fix-up
/// every copied result (a cache hit or a class member) gets.
MutantResult withIdentity(MutantResult r, const mutation::InjectedMutant& mutant) {
  r.id = mutant.id;
  r.kind = mutant.spec.kind;
  r.deltaTicks = mutant.spec.deltaTicks;
  return r;
}

/// Stimulus sink for driver replay: a stateful testbench driver
/// (Testbench::makeDriver) must be stepped through the fast-forwarded
/// prefix so its internal FSM/PRNG state matches the restored model state,
/// but the driven values are already baked into the checkpoint — discard
/// them. (Drivers are write-only: they cannot observe the model, so a null
/// sink replays their state trajectory exactly.)
const PortSetter& nullPortSetter() {
  static const PortSetter sink = [](const std::string&, std::uint64_t) {};
  return sink;
}

}  // namespace

int AnalysisReport::countKilled() const noexcept {
  int n = 0;
  for (const auto& r : results) n += r.killed ? 1 : 0;
  return n;
}

int AnalysisReport::countRisen() const noexcept {
  int n = 0;
  for (const auto& r : results) n += r.errorRisen ? 1 : 0;
  return n;
}

int AnalysisReport::countDetected() const noexcept {
  int n = 0;
  for (const auto& r : results) n += r.detected ? 1 : 0;
  return n;
}

double AnalysisReport::killedPct() const noexcept {
  return results.empty() ? 0.0 : 100.0 * countKilled() / static_cast<double>(results.size());
}

double AnalysisReport::risenPct() const noexcept {
  return results.empty() ? 0.0 : 100.0 * countRisen() / static_cast<double>(results.size());
}

double AnalysisReport::correctedPct() const noexcept {
  int checked = 0, ok = 0;
  for (const auto& r : results) {
    if (r.correctionChecked) {
      ++checked;
      ok += r.corrected ? 1 : 0;
    }
  }
  if (checked == 0) return -1.0;
  return 100.0 * ok / static_cast<double>(checked);
}

namespace {

/// The one golden recording loop. `layout` is the golden design's or the
/// injected one's: with no mutant active every mutated target commits at the
/// edge, so both replay the golden trajectory bit for bit (mutation/adam.h).
/// Runs on `lib` when non-null, else on the interpreter.
template <class P>
GoldenTrace recordGoldenOn(const abstraction::TlmModelLayoutPtr& layout,
                           const abstraction::NativeLibraryPtr& lib,
                           const std::vector<InsertedSensor>& sensors, const Testbench& tb,
                           const AnalysisConfig& cfg) {
  Session<P> model(layout, lib);
  const ir::Design& design = layout->design;
  const std::size_t n = sensors.size();
  std::vector<ir::SymbolId> endpointSyms, eSyms(n, ir::kNoSymbol), mvSyms(n, ir::kNoSymbol),
      okSyms(n, ir::kNoSymbol);
  endpointSyms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const InsertedSensor& s = sensors[i];
    endpointSyms.push_back(design.findSymbol(s.endpointName));
    if (!s.errorSignal.empty()) eSyms[i] = design.findSymbol(s.errorSignal);
    if (!s.measValSignal.empty()) mvSyms[i] = design.findSymbol(s.measValSignal);
    if (!s.outOkSignal.empty()) okSyms[i] = design.findSymbol(s.outOkSignal);
  }

  GoldenTrace trace;
  trace.cycles = tb.cycles;
  trace.outWidth = design.outputs.size();
  trace.epWidth = n;
  trace.outputs = util::MappedWords(trace.cycles * trace.outWidth);
  trace.endpoints = util::MappedWords(trace.cycles * trace.epWidth);
  // "No activity yet" and "quiet for the whole run" share the tb.cycles
  // sentinel: a sensor that never fires simply keeps it. A zero-cycle
  // trace has no endpoint columns at all — the codec writes zero widths
  // for it, and recorder and encoder must agree.
  trace.firstActivity.assign(tb.cycles == 0 ? 0 : n, tb.cycles);
  // Endpoint state at the previous cycle boundary, full SV planes (the
  // initial values before cycle 0 seed the comparison).
  std::vector<SV> prev(n);
  for (std::size_t i = 0; i < n; ++i) prev[i] = model.rawValue(endpointSyms[i]);

  const ir::SymbolId recoverySym = design.findSymbol(insertion::AddedPorts::recovery);
  const DriveFn drive = tb.driverForTask(cfg.stimulusId);
  DriveRecorder stimulus(design);
  for (std::uint64_t c = 0; c < tb.cycles; ++c) {
    stimulus.capture(drive, c);
    stimulus.replayInto(model);
    if (recoverySym != ir::kNoSymbol) model.setInputUint(recoverySym, 1);
    model.scheduler();
    std::uint64_t* outs = trace.outputs.data() + c * trace.outWidth;
    for (ir::SymbolId o : design.outputs) *outs++ = model.valueUint(o);
    std::uint64_t* eps = trace.endpoints.data() + c * trace.epWidth;
    for (ir::SymbolId e : endpointSyms) *eps++ = model.valueUint(e);
    // First-activity tracking: the first value-plane change of the endpoint
    // register OR the first cycle the golden run itself would trip one of
    // the mutant loop's observation predicates. Until that cycle a mutant
    // at this endpoint is provably transparent (no value-changing commit to
    // re-time) and provably unobserved (state-identical to this run, whose
    // observations are all quiet), so the fast path may skip straight to it.
    for (std::size_t i = 0; i < n; ++i) {
      if (trace.firstActivity[i] != tb.cycles) continue;
      const SV cur = model.rawValue(endpointSyms[i]);
      const bool toggled = cur.val != prev[i].val || cur.unk != prev[i].unk;
      const bool observed =
          (eSyms[i] != ir::kNoSymbol && model.valueUint(eSyms[i]) == 1) ||
          (mvSyms[i] != ir::kNoSymbol && model.valueUint(mvSyms[i]) != 0) ||
          (okSyms[i] != ir::kNoSymbol && model.valueUint(okSyms[i]) == 0);
      if (toggled || observed) trace.firstActivity[i] = c;
    }
  }
  return trace;
}

template <class P>
constexpr const char* policyTag() {
  return std::is_same_v<P, hdt::TwoState> ? "2s" : "4s";
}

}  // namespace

template <class P>
GoldenTrace recordGoldenTrace(const ir::Design& golden,
                              const std::vector<InsertedSensor>& sensors, const Testbench& tb,
                              const AnalysisConfig& cfg,
                              abstraction::NativeUseStats* nativeStats) {
  const auto layout =
      abstraction::buildTlmModelLayout(golden, TlmModelConfig{cfg.hfRatio, false});
  abstraction::NativeLibraryPtr lib;
  if (resolveSimBackend(cfg.backend) == SimBackend::Native) {
    lib = abstraction::getNativeLibrary(*layout, std::is_same_v<P, hdt::FourState>,
                                        nativeStats);
  }
  return recordGoldenOn<P>(layout, lib, sensors, tb, cfg);
}

template <class P>
MutationCampaignContext prepareMutationCampaign(const ir::Design& golden,
                                                const InjectedDesign& injected,
                                                const std::vector<InsertedSensor>& sensors,
                                                const Testbench& tb,
                                                const AnalysisConfig& cfg) {
  MutationCampaignContext ctx;
  ctx.sensors = sensors;
  ctx.tb = tb;
  ctx.cfg = cfg;
  // Compile + levelize the injected design once: every run of the campaign
  // — the golden recording, the checkpoint recording and each mutant task —
  // is a cheap private session over this one layout.
  ctx.layout = abstraction::buildTlmModelLayout(
      injected.design, TlmModelConfig{cfg.hfRatio, false}, injected.mutants);
  ctx.recoverySym = ctx.layout->design.findSymbol(insertion::AddedPorts::recovery);
  ctx.hasRecovery = ctx.recoverySym != ir::kNoSymbol;
  ctx.referenceSim = referenceSimMode();
  // Backend/batch resolution happens exactly once per campaign: every run
  // shares one dlopen'd library, and a failed native build degrades the
  // whole campaign to the interpreter.
  if (resolveSimBackend(cfg.backend) == SimBackend::Native) {
    abstraction::NativeUseStats native;
    ctx.nativeLib = abstraction::getNativeLibrary(
        *ctx.layout, std::is_same_v<P, hdt::FourState>, &native);
    ctx.prepareLedger.nativeCompiles = native.compiles;
    ctx.prepareLedger.nativeCacheHits = native.cacheHits;
  }
  // The golden trace is recorded on that layout with no mutant active, and
  // keyed by the golden design's identity: every mutant-set variant of one
  // design records, and shares, the same trace.
  //
  // Only the run that actually records is charged goldenSeconds. A waiter
  // blocked on another task's in-flight recording reports ~0 — its wait
  // shows up in wall time, not in the "golden work spent" ledger (which
  // must not inflate with thread count). A disk load is likewise not a
  // recording: it charges 0 and counts as served-from-cache.
  double recordSeconds = 0.0;
  const auto record = [&] {
    util::Timer t;
    GoldenTrace trace = recordGoldenOn<P>(ctx.layout, ctx.nativeLib, sensors, tb, cfg);
    recordSeconds = t.seconds();
    return trace;
  };
  if (cfg.useGoldenCache || cfg.useMutantCache) {
    ctx.goldenKey = goldenTraceKey(golden, sensors, tb, cfg, policyTag<P>());
  }
  if (cfg.useGoldenCache) {
    bool memHit = false;
    ctx.gold = util::getOrBuildWithStore<GoldenTrace>(
        goldenTraceCache(), util::processArtifactStore(), "golden", ctx.goldenKey, record,
        encodeGoldenTrace, decodeGoldenTrace, &memHit, &ctx.goldenFromDisk);
    ctx.goldenFromCache = memHit || ctx.goldenFromDisk;
  } else {
    ctx.gold = std::make_shared<const GoldenTrace>(record());
  }
  ctx.goldenSeconds = recordSeconds;
  ctx.batch = resolveBatchSize(cfg.batch);
  // ~16 checkpoints across the run: fine enough that a fast-forward lands
  // close to the divergence cycle, coarse enough that the recording run's
  // snapshot cost stays a fraction of one mutant simulation.
  ctx.checkpointInterval = std::max<std::uint64_t>(1, tb.cycles / 16);
  ctx.checkpoints = std::make_shared<CampaignCheckpoints>();
  ctx.classResults = std::make_shared<MutantClassResults>();
  return ctx;
}

namespace {

/// Record the campaign checkpoints once (any number of tasks may race
/// here; losers block on the winner, and retry if it threw): one clean
/// no-mutant run over the injected layout — by mutant transparency, the
/// golden trajectory — with a state snapshot at every interval boundary.
template <class P>
const CampaignCheckpoints& ensureCheckpoints(const MutationCampaignContext& ctx) {
  CampaignCheckpoints& cp = *ctx.checkpoints;
  if (cp.recorded.load(std::memory_order_acquire)) return cp;
  std::lock_guard<std::mutex> lock(cp.mu);
  if (cp.recorded.load(std::memory_order_relaxed)) return cp;
  const std::uint64_t k = ctx.checkpointInterval;
  // The deepest restorable point any mutant can use is the last interval
  // boundary at or before the largest fast-forward limit of THIS
  // analysis's mutant subrange (a shard fragment must not pay for the
  // prefixes of mutants other fragments own; a limit >= tb.cycles is a
  // full skip that needs no checkpoint at all) — the recording run stops
  // there instead of replaying the whole bench. Computed BEFORE any
  // simulation so the cache key below is known up front.
  const auto [begin, end] = clampMutantRange(ctx.cfg, ctx.layout->mutants.size());
  std::uint64_t deepest = 0;
  for (std::size_t m = begin; m < end; ++m) {
    const std::string& endpoint = ctx.layout->mutants[m].spec.targetSignal;
    for (std::size_t i = 0; i < ctx.sensors.size(); ++i) {
      if (ctx.sensors[i].endpointName != endpoint) continue;
      if (i < ctx.gold->firstActivity.size() &&
          ctx.gold->firstActivity[i] < ctx.tb.cycles) {
        deepest = std::max(deepest, ctx.gold->firstActivity[i]);
      }
      break;
    }
  }
  const std::uint64_t last = (deepest / k) * k;

  const auto record = [&]() -> CheckpointRecording {
    CheckpointRecording rec;
    rec.interval = k;
    rec.recordedCycles = last;
    Session<P> model(ctx.layout, ctx.nativeLib);
    const DriveFn drive = ctx.tb.driverForTask(ctx.cfg.stimulusId);
    DriveRecorder stimulus(model.design());
    for (std::uint64_t c = 0; c < last; ++c) {
      if (c != 0 && c % k == 0) {
        rec.cycles.push_back(c);
        model.saveWords(rec.snapWords.emplace_back());
      }
      stimulus.capture(drive, c);
      stimulus.replayInto(model);
      if (ctx.hasRecovery) model.setInputUint(ctx.recoverySym, 1);
      model.scheduler();
    }
    if (last != 0) {
      rec.cycles.push_back(last);
      model.saveWords(rec.snapWords.emplace_back());
    }
    return rec;
  };

  if (!ctx.goldenKey.empty()) {
    // Cross-campaign sharing (warm re-runs, sweep variants over the same
    // injected design, shard processes that agree on the depth): keyed by
    // golden identity x injected layout fingerprint x interval x depth,
    // spilled through the artifact store like the traces it derives from.
    bool memHit = false, diskHit = false;
    cp.rec = util::getOrBuildWithStore<CheckpointRecording>(
        checkpointCache(), util::processArtifactStore(), "ckpt",
        checkpointKey(ctx.goldenKey,
                      designFingerprint(ctx.layout->design, ctx.cfg.hfRatio), k, last),
        record, encodeCheckpointRecording, decodeCheckpointRecording, &memHit, &diskHit);
    cp.fromCache = memHit || diskHit;
  } else {
    cp.rec = std::make_shared<const CheckpointRecording>(record());
  }
  cp.recorded.store(true, std::memory_order_release);
  return cp;
}

}  // namespace

namespace {

/// One member of a batched co-simulation: the per-mutant state the solo
/// path kept in locals, lifted so K members can march lock-step.
template <class P>
struct BatchMember {
  int mutantIndex = -1;
  std::size_t slot = 0;  ///< index into the group's results/stats
  int sensorIdx = -1;
  ir::SymbolId eSym = ir::kNoSymbol, qSym = ir::kNoSymbol, mvSym = ir::kNoSymbol,
               okSym = ir::kNoSymbol;
  bool isDelta = false;
  std::uint64_t deltaCap = 0;
  std::uint64_t limit = 0;
  std::uint64_t startCycle = 0;
  bool correctionViolated = false;
  bool correctionObserved = false;
  bool retired = false;
  std::uint64_t executed = 0;
  std::unique_ptr<Session<P>> model;
};

/// Simulate the mutants `indices` together: K private sessions (one per
/// mutant) march lock-step against ONE shared testbench replay — the driver
/// runs once per cycle into a recorder, and the captured row fans out to
/// every live member. Per-member verdicts, fast-forward limits, checkpoint
/// restores and saturation exits are evaluated independently, exactly as in
/// the solo path, so results AND per-member cycle ledgers are bit-identical
/// at any batch size (the conformance suite pins K in {1,4,64} against
/// K=1). `work[slot]` is member slot's ledger: its cycles, and one batched
/// mutant when two or more members actually co-simulated.
template <class P>
void simulateMutantGroup(const MutationCampaignContext& ctx, const std::vector<int>& indices,
                         std::vector<MutantResult>& results, std::vector<WorkLedger>& work) {
  const ir::Design& design = ctx.layout->design;
  const std::uint64_t cycles = ctx.tb.cycles;
  const GoldenTrace& gold = *ctx.gold;
  const bool fast = !ctx.referenceSim;

  results.assign(indices.size(), MutantResult{});
  work.assign(indices.size(), WorkLedger{});

  std::vector<BatchMember<P>> live;
  live.reserve(indices.size());
  for (std::size_t slot = 0; slot < indices.size(); ++slot) {
    const int mutantIndex = indices[slot];
    const auto& mutant = ctx.layout->mutants.at(static_cast<std::size_t>(mutantIndex));
    MutantResult& res = results[slot];
    res.id = mutant.id;
    res.endpoint = mutant.spec.targetSignal;
    res.kind = mutant.spec.kind;
    res.deltaTicks = mutant.spec.deltaTicks;

    BatchMember<P> m;
    m.mutantIndex = mutantIndex;
    m.slot = slot;
    const InsertedSensor* sensor = nullptr;
    for (std::size_t i = 0; i < ctx.sensors.size(); ++i) {
      if (ctx.sensors[i].endpointName == res.endpoint) {
        sensor = &ctx.sensors[i];
        m.sensorIdx = static_cast<int>(i);
        break;
      }
    }
    if (sensor != nullptr) {
      if (!sensor->errorSignal.empty()) m.eSym = design.findSymbol(sensor->errorSignal);
      if (!sensor->qSignal.empty()) m.qSym = design.findSymbol(sensor->qSignal);
      if (!sensor->measValSignal.empty()) m.mvSym = design.findSymbol(sensor->measValSignal);
      if (!sensor->outOkSignal.empty()) m.okSym = design.findSymbol(sensor->outOkSignal);
    }

    // Fast-forward limit: the cycle before which this mutant is provably
    // transparent AND provably unobserved (GoldenTrace::firstActivity).
    // Zero (no skip) in reference mode, for unsensored targets and for
    // traces predating the metadata (size guard: a trace without
    // per-sensor first-activity data cannot justify skipping anything).
    if (fast && m.sensorIdx >= 0 && gold.firstActivity.size() == ctx.sensors.size()) {
      m.limit = std::min<std::uint64_t>(
          gold.firstActivity[static_cast<std::size_t>(m.sensorIdx)], cycles);
    }
    if (fast && m.limit >= cycles) {
      // Quiet for the whole run: the mutant never re-times a value-changing
      // commit and the golden run never trips an observation predicate, so
      // the co-simulation is the golden run — nothing is killed, detected
      // or measured. The default-initialized result IS the full-replay
      // result; the member never joins the march.
      work[slot].cyclesSkipped += cycles;
      continue;
    }
    m.isDelta = mutant.spec.kind == MutantKind::DeltaDelay;
    m.deltaCap = static_cast<std::uint64_t>(std::max(0, res.deltaTicks));
    live.push_back(std::move(m));
  }

  // Checkpoint fast-forward, member by member: restore the deepest campaign
  // checkpoint at or before each member's limit instead of re-simulating
  // its quiet prefix from reset.
  const CheckpointRecording* rec = nullptr;
  if (fast) {
    for (const auto& m : live) {
      if (m.limit >= ctx.checkpointInterval) {
        rec = ensureCheckpoints<P>(ctx).rec.get();
        break;
      }
    }
  }
  for (auto& m : live) {
    m.model = std::make_unique<Session<P>>(ctx.layout, ctx.nativeLib);
    m.model->activateMutant(ctx.layout->mutants[static_cast<std::size_t>(m.mutantIndex)].id);
    if (rec != nullptr && m.limit >= ctx.checkpointInterval) {
      for (std::size_t i = rec->cycles.size(); i-- > 0;) {
        if (rec->cycles[i] <= m.limit) {
          m.model->loadWords(rec->snapWords[i]);
          m.startCycle = rec->cycles[i];
          break;
        }
      }
    }
  }

  if (live.empty()) return;

  // ONE fresh driver for the whole group, same stimulus id as the golden
  // run: every solo task would construct an identical driver, so sharing
  // the replay preserves the stimulus bit-for-bit. The march starts at the
  // earliest member's start cycle; members with deeper checkpoints join
  // when the cycle counter reaches them (their restored state already
  // contains the earlier drives). A stateful driver is stepped through the
  // pre-march prefix against a null sink so its session state matches.
  std::uint64_t minStart = cycles;
  for (const auto& m : live) minStart = std::min(minStart, m.startCycle);
  const DriveFn drive = ctx.tb.driverForTask(ctx.cfg.stimulusId);
  if (minStart > 0 && ctx.tb.makeDriver) {
    for (std::uint64_t c = 0; c < minStart; ++c) drive(c, nullPortSetter());
  }

  // Verdict saturation: true once no remaining cycle can change any field
  // of the member's result, at which point it retires from the march.
  //   * killed, detected, errorRisen are sticky — they only go false->true;
  //   * the Razor correction verdict is pinned once a violation was
  //     observed (corrected is then false forever); while the correction
  //     holds, any future error cycle could still violate it, so the run
  //     must continue;
  //   * a DeltaDelay mutant's MEAS_VAL is structurally capped at its own
  //     deltaTicks: the target's only driver commits exactly at HF period
  //     deltaTicks, so every toggle window measures that count (and quiet
  //     windows measure 0) — once the max is reached it cannot rise, and
  //     the per-toggle OUT_OK comparison against the constant LUT threshold
  //     repeats identically, so errorRisen is final once a toggle was
  //     detected. (This reasoning assumes two-valued operation of the
  //     monitored path, which holds for initialized registers under known
  //     stimulus — the conformance suite pins fast == reference.)
  const auto saturated = [](const BatchMember<P>& m, const MutantResult& res) noexcept {
    if (!res.killed) return false;
    if (m.eSym != ir::kNoSymbol && !(res.detected && res.errorRisen)) return false;
    if (m.qSym != ir::kNoSymbol && !(m.correctionObserved && m.correctionViolated)) {
      return false;
    }
    if (m.mvSym != ir::kNoSymbol &&
        !(m.isDelta && m.deltaCap > 0 && res.measuredDelay >= m.deltaCap)) {
      return false;
    }
    if (m.okSym != ir::kNoSymbol && !res.errorRisen && !(m.isDelta && res.detected)) {
      return false;
    }
    return true;
  };

  DriveRecorder stimulus(design);
  const std::vector<ir::SymbolId>& outSyms = design.outputs;
  std::size_t active = live.size();
  for (std::uint64_t c = minStart; c < cycles && active > 0; ++c) {
    stimulus.capture(drive, c);
    for (auto& m : live) {
      if (m.retired || c < m.startCycle) continue;
      MutantResult& res = results[m.slot];
      stimulus.replayInto(*m.model);
      if (ctx.hasRecovery) m.model->setInputUint(ctx.recoverySym, 1);
      m.model->scheduler();
      ++m.executed;

      // Kill check against the golden output row; a killed mutant stays
      // killed, so the scan is skipped once it has fired.
      if (!res.killed) {
        const std::uint64_t* goldRow = gold.outputRow(c);
        for (std::size_t o = 0; o < outSyms.size(); ++o) {
          if (m.model->valueUint(outSyms[o]) != goldRow[o]) {
            res.killed = true;
            break;
          }
        }
      }
      // Sensor observation at the mutated endpoint.
      if (m.eSym != ir::kNoSymbol && m.model->valueUint(m.eSym) == 1) {
        res.detected = true;
        res.errorRisen = true;
        // Correction check: q presents the golden endpoint value of the
        // previous cycle.
        if (m.qSym != ir::kNoSymbol && c >= 1 && m.sensorIdx >= 0) {
          m.correctionObserved = true;
          if (m.model->valueUint(m.qSym) !=
              gold.endpoint(c - 1, static_cast<std::size_t>(m.sensorIdx))) {
            m.correctionViolated = true;
          }
        }
      }
      if (m.mvSym != ir::kNoSymbol) {
        const std::uint64_t mv = m.model->valueUint(m.mvSym);
        if (mv != 0) {
          res.detected = true;
          res.measuredDelay = std::max(res.measuredDelay, mv);
        }
      }
      if (m.okSym != ir::kNoSymbol && m.model->valueUint(m.okSym) == 0) {
        res.errorRisen = true;
      }

      if (fast && saturated(m, res)) {
        m.retired = true;
        --active;
      }
    }
  }

  for (const auto& m : live) {
    WorkLedger& w = work[m.slot];
    w.cyclesSimulated += m.executed;
    w.cyclesSkipped += cycles - m.executed;
    w.batchedMutants = live.size() >= 2 ? 1 : 0;
    if (m.qSym != ir::kNoSymbol) {
      results[m.slot].correctionChecked = m.correctionObserved;
      results[m.slot].corrected = m.correctionObserved && !m.correctionViolated;
    }
  }
}

}  // namespace

template <class P>
MutantResult simulateMutant(const MutationCampaignContext& ctx, int mutantIndex,
                            MutantSimStats* stats) {
  const auto& mutant = ctx.layout->mutants.at(static_cast<std::size_t>(mutantIndex));
  const mutation::MutantSpec cls =
      abstraction::mutantClassSpec(mutant.spec, ctx.layout->cfg.hfRatio);
  MutantClassResults& done = *ctx.classResults;
  if (!ctx.referenceSim) {
    std::lock_guard<std::mutex> lock(done.mu);
    const auto it = done.byClass.find(cls);
    if (it != done.byClass.end()) {
      if (stats != nullptr) stats->cyclesSkipped += ctx.tb.cycles;
      return withIdentity(it->second, mutant);
    }
  }
  std::vector<MutantResult> results;
  std::vector<WorkLedger> work;
  simulateMutantGroup<P>(ctx, {mutantIndex}, results, work);
  if (stats != nullptr) *stats += work[0];
  if (!ctx.referenceSim) {
    std::lock_guard<std::mutex> lock(done.mu);
    done.byClass.emplace(cls, results[0]);
  }
  return results[0];
}

template <class P>
AnalysisReport analyzeMutations(const ir::Design& golden, const InjectedDesign& injected,
                                const std::vector<InsertedSensor>& sensors, const Testbench& tb,
                                const AnalysisConfig& cfg) {
  util::Timer wall;
  AnalysisReport report;
  report.cyclesPerRun = tb.cycles;

  util::Timer prepareTimer;
  const MutationCampaignContext ctx =
      prepareMutationCampaign<P>(golden, injected, sensors, tb, cfg);
  const double prepareSeconds = prepareTimer.seconds();
  report.goldenSeconds = ctx.goldenSeconds;
  report.goldenFromCache = ctx.goldenFromCache;
  report.goldenFromDisk = ctx.goldenFromDisk;

  const auto [begin, end] = clampMutantRange(cfg, ctx.layout->mutants.size());
  const std::size_t n = end - begin;
  report.results.resize(n);
  // One ledger per mutant slot, written only by the task that owns the slot
  // (and, for class members, by the loop after the tasks).
  std::vector<WorkLedger> slotLedgers(n);

  // Fault collapsing: the mutants of one class (one
  // abstraction::mutantClassSpec) behave bit-identically, so only the first
  // member of each class within this range — its representative — is
  // simulated, and the mutant cache keys it on the class spec; a fragment
  // never depends on a mutant outside its own range. Under
  // XLV_REFERENCE_SIM=1 every mutant is its own representative, keyed on
  // its own spec, keeping the reference path the oracle that simulates
  // every member.
  std::vector<mutation::MutantSpec> keySpecs(n);
  std::vector<std::size_t> repOf(n);
  std::vector<std::size_t> reps;
  {
    std::map<mutation::MutantSpec, std::size_t> firstInRange;
    for (std::size_t i = 0; i < n; ++i) {
      const mutation::MutantSpec& spec = ctx.layout->mutants[begin + i].spec;
      repOf[i] = i;
      if (ctx.referenceSim) {
        keySpecs[i] = spec;
      } else {
        keySpecs[i] = abstraction::mutantClassSpec(spec, ctx.layout->cfg.hfRatio);
        repOf[i] = firstInRange.emplace(keySpecs[i], i).first->second;
      }
      if (repOf[i] == i) reps.push_back(i);
    }
  }

  // One parallel task per batch of ctx.batch consecutive representatives;
  // each task co-simulates its members lock-step against one shared
  // stimulus replay (simulateMutantGroup). batch == 1 degenerates to the
  // classic one-task-per-mutant schedule.
  const std::size_t batch = static_cast<std::size_t>(ctx.batch);
  const std::size_t numTasks = reps.empty() ? 0 : (reps.size() + batch - 1) / batch;
  std::vector<double> taskSeconds(numTasks, 0.0);

  // Serves the representatives reps[r], r in `todo`, from the mutant cache.
  // A mutant's result is independent of which other (inactive) mutants ride
  // along in the injected design (mutation/adam.h), so it is keyed by
  // (golden key, class spec) alone and shared across mutant-set variants,
  // re-runs and — through the artifact store — processes. The cached value
  // is normalised to the class spec and fixed up here against this run's
  // injected set (analysis/mutant_cache.h).
  //
  // Cache x batch: the first member whose build lambda actually runs
  // batch-simulates every member of `todo` not yet produced locally into
  // freshResults; later misses serve from that map. A member whose key hits
  // (memory or disk) is a cache hit and charges none of its simulation —
  // any speculative fresh result for it is simply dropped, keeping the
  // ledger identical to the solo schedule.
  //
  // With `aside` set, a representative whose class another thread is
  // building right now is not waited for (OnceCache's busy probe): its r
  // goes to *aside and the walk moves on. Sweep items that share classes
  // walk them in the same order, so waiting would idle this thread for
  // as long as the other one simulates.
  const auto serveFromCache = [&](const std::vector<std::size_t>& todo,
                                  std::vector<std::size_t>* aside) {
    std::unordered_map<int, MutantResult> freshResults;
    std::unordered_map<int, WorkLedger> freshLedgers;
    for (std::size_t k = 0; k < todo.size(); ++k) {
      const std::size_t i = reps[todo[k]];
      const int mutantIndex = static_cast<int>(begin + i);
      const auto& mutant = ctx.layout->mutants.at(static_cast<std::size_t>(mutantIndex));
      const mutation::MutantSpec& keySpec = keySpecs[i];
      bool memHit = false, diskHit = false, busy = false;
      const std::shared_ptr<const MutantResult> cached = util::getOrBuildWithStore<MutantResult>(
          mutantResultCache(), util::processArtifactStore(), "mutant",
          mutantResultKey(ctx.goldenKey, keySpec),
          [&] {
            if (freshResults.find(mutantIndex) == freshResults.end()) {
              std::vector<int> pending;
              for (std::size_t j = k; j < todo.size(); ++j) {
                const int idx = static_cast<int>(begin + reps[todo[j]]);
                if (freshResults.find(idx) == freshResults.end()) pending.push_back(idx);
              }
              std::vector<MutantResult> rs;
              std::vector<WorkLedger> ws;
              simulateMutantGroup<P>(ctx, pending, rs, ws);
              for (std::size_t p = 0; p < pending.size(); ++p) {
                freshResults[pending[p]] = rs[p];
                freshLedgers[pending[p]] = ws[p];
              }
            }
            MutantResult fresh = freshResults[mutantIndex];
            fresh.id = -1;
            fresh.kind = keySpec.kind;
            fresh.deltaTicks = keySpec.deltaTicks;
            return fresh;
          },
          encodeMutantResultArtifact, decodeMutantResultArtifact, &memHit, &diskHit,
          aside != nullptr ? &busy : nullptr);
      if (busy) {
        aside->push_back(todo[k]);
        continue;
      }
      report.results[i] = withIdentity(*cached, mutant);
      if (memHit || diskHit) {
        slotLedgers[i].mutantCacheHits = 1;
      } else {
        slotLedgers[i] = freshLedgers[mutantIndex];
      }
    }
  };

  campaign::Executor executor(campaign::ExecutorConfig{cfg.threads});
  report.threadsUsed = executor.effectiveThreads(numTasks);
  std::vector<std::vector<std::size_t>> asideOf(numTasks);
  executor.run(numTasks, [&](std::size_t t) {
    util::Timer timer;
    const std::size_t lo = t * batch;
    const std::size_t hi = std::min(reps.size(), lo + batch);
    if (cfg.useMutantCache) {
      std::vector<std::size_t> todo(hi - lo);
      std::iota(todo.begin(), todo.end(), lo);
      serveFromCache(todo, &asideOf[t]);
    } else {
      std::vector<int> indices;
      indices.reserve(hi - lo);
      for (std::size_t r = lo; r < hi; ++r) indices.push_back(static_cast<int>(begin + reps[r]));
      std::vector<MutantResult> rs;
      std::vector<WorkLedger> ws;
      simulateMutantGroup<P>(ctx, indices, rs, ws);
      for (std::size_t r = lo; r < hi; ++r) {
        report.results[reps[r]] = rs[r - lo];
        slotLedgers[reps[r]] = ws[r - lo];
      }
    }
    taskSeconds[t] = timer.seconds();
  });
  // The second pass: only the tasks that set a class aside run again, and
  // now wait for it. By then it is normally built, so it is a hit, as a
  // waiter would have been; a class whose builder threw is built here.
  std::vector<std::size_t> late;
  for (std::size_t t = 0; t < numTasks; ++t) {
    if (!asideOf[t].empty()) late.push_back(t);
  }
  executor.run(late.size(), [&](std::size_t k) {
    util::Timer timer;
    serveFromCache(asideOf[late[k]], nullptr);
    taskSeconds[late[k]] += timer.seconds();
  });
  // Every other member copies its representative's result. With the mutant
  // cache on, the member is a cache hit and charges nothing: its class's
  // entry is the one the representative just filled or found, whichever it
  // was, so no total depends on which sweep item simulated a shared class.
  // With the cache off it charges its whole run as skipped (simulated +
  // skipped stays the testbench length per mutant).
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = repOf[i];
    if (r == i) continue;
    report.results[i] = withIdentity(report.results[r], ctx.layout->mutants[begin + i]);
    if (cfg.useMutantCache) {
      slotLedgers[i].mutantCacheHits = 1;
    } else {
      slotLedgers[i].cyclesSkipped = tb.cycles;
    }
  }
  // The ledger: prepare's, plus every slot's, plus the lazy checkpoint
  // recording run, which ran at most once, only if some task fast-forwarded,
  // and is charged only when THIS campaign performed the recording (a cache
  // hit did no work).
  report += ctx.prepareLedger;
  for (const WorkLedger& w : slotLedgers) report += w;
  if (ctx.checkpoints != nullptr &&
      ctx.checkpoints->recorded.load(std::memory_order_acquire) &&
      !ctx.checkpoints->fromCache && ctx.checkpoints->rec != nullptr) {
    report.cyclesSimulated += ctx.checkpoints->rec->recordedCycles;
  }

  // simSeconds aggregates the work (sum of per-run times); wallSeconds is
  // what elapsed — they coincide on one thread. A golden-cache hit shrinks
  // the prepare component (layout build remains, recording is skipped).
  report.simSeconds = prepareSeconds;
  for (double s : taskSeconds) report.simSeconds += s;
  report.wallSeconds = wall.seconds();
  return report;
}

template GoldenTrace recordGoldenTrace<hdt::FourState>(const ir::Design&,
                                                       const std::vector<InsertedSensor>&,
                                                       const Testbench&, const AnalysisConfig&,
                                                       abstraction::NativeUseStats*);
template GoldenTrace recordGoldenTrace<hdt::TwoState>(const ir::Design&,
                                                      const std::vector<InsertedSensor>&,
                                                      const Testbench&, const AnalysisConfig&,
                                                      abstraction::NativeUseStats*);
template MutationCampaignContext prepareMutationCampaign<hdt::FourState>(
    const ir::Design&, const InjectedDesign&, const std::vector<InsertedSensor>&,
    const Testbench&, const AnalysisConfig&);
template MutationCampaignContext prepareMutationCampaign<hdt::TwoState>(
    const ir::Design&, const InjectedDesign&, const std::vector<InsertedSensor>&,
    const Testbench&, const AnalysisConfig&);
template MutantResult simulateMutant<hdt::FourState>(const MutationCampaignContext&, int,
                                                     MutantSimStats*);
template MutantResult simulateMutant<hdt::TwoState>(const MutationCampaignContext&, int,
                                                    MutantSimStats*);
template AnalysisReport analyzeMutations<hdt::FourState>(
    const ir::Design&, const InjectedDesign&, const std::vector<InsertedSensor>&,
    const Testbench&, const AnalysisConfig&);
template AnalysisReport analyzeMutations<hdt::TwoState>(
    const ir::Design&, const InjectedDesign&, const std::vector<InsertedSensor>&,
    const Testbench&, const AnalysisConfig&);

std::vector<mutation::MutantSpec> razorMutantSet(const std::vector<InsertedSensor>& sensors) {
  std::vector<mutation::MutantSpec> specs;
  specs.reserve(sensors.size() * 2);
  for (const auto& s : sensors) {
    specs.push_back({s.endpointName, MutantKind::MinDelay, 0});
    specs.push_back({s.endpointName, MutantKind::MaxDelay, 0});
  }
  return specs;
}

std::vector<mutation::MutantSpec> counterMutantSet(const std::vector<InsertedSensor>& sensors,
                                                   double clockPeriodPs, int hfRatio) {
  (void)clockPeriodPs;
  std::vector<mutation::MutantSpec> specs;
  specs.reserve(sensors.size() * 3);
  if (sensors.empty()) return specs;

  // Severity model: each path's modeled lateness is proportional to its
  // arrival relative to the 75th percentile of the monitored arrivals
  // (capped at 1.25 so one deep outlier does not compress everyone else),
  // scaled by three variability factors — nominal, derated and worst-case.
  // The resulting delta ticks straddle the sensor's LUT threshold, so the
  // fraction of "errors risen" reflects the IP's own slack distribution,
  // as in Table 5.
  std::vector<double> arrivals;
  arrivals.reserve(sensors.size());
  for (const auto& s : sensors) arrivals.push_back(s.endpointArrivalPs);
  std::sort(arrivals.begin(), arrivals.end());
  const double p75 =
      std::max(1.0, arrivals[(arrivals.size() * 3) / 4 >= arrivals.size()
                                 ? arrivals.size() - 1
                                 : (arrivals.size() * 3) / 4]);

  const double factors[3] = {0.8, 1.2, 1.6};
  for (const auto& s : sensors) {
    const double severity = std::min(1.25, s.endpointArrivalPs / p75);
    for (double f : factors) {
      int tick = static_cast<int>(std::lround(hfRatio * severity * f));
      tick = std::clamp(tick, 1, hfRatio);
      specs.push_back({s.endpointName, MutantKind::DeltaDelay, tick});
    }
  }
  return specs;
}

}  // namespace xlv::analysis
