// TlmIpModel: the abstracted (RTL-to-TLM) executable model.
//
// This is the product of the abstraction step (paper Section 5): the RTL
// scheduler is replaced by an explicit scheduler() function that reproduces,
// per clock cycle, the phases of the HDL simulation cycle (Fig. 6b), with
// the dual-clock extension wrapping the high-frequency clock periods inside
// the same transaction (Fig. 8b). One scheduler() call == one TLM
// transaction == one RTL clock cycle, preserving cycle accuracy.
//
// Why it is faster than the event-driven kernel (Table 3):
//   * no time wheel, no event objects, no per-timestep bookkeeping;
//   * asynchronous processes are levelized: a topological order is computed
//     once, and each settling pass is a single ordered sweep over the dirty
//     processes instead of iterated delta cycles with wake-up queues.
// For acyclic combinational logic the sweep reaches the identical fixpoint
// the delta iteration would (verified by the cycle-equivalence tests).
//
// Concurrency model: everything that is expensive to derive and immutable
// after construction — the elaborated design copy, the compiled process
// bodies, the process classification and the levelized sweep order — lives
// in a TlmModelLayout shared read-only (via shared_ptr-const) by any number
// of model instances. A TlmIpModel is then a cheap, independent simulation
// session: per-instance value store, dirty flags, cycle counter and active
// mutant. A mutation campaign compiles the injected design once and clones
// one session per task/thread; sessions never share mutable state.
//
// Mutant support (Section 6): the model owns the scheduler-phase application
// points. Every mutated target whose mutants are all inactive commits at the
// normal edge-commit point, so the injected model with no mutant active is
// cycle-equivalent to the original and records the golden trajectory; the
// active mutant's target commits at its class's phase point instead:
//   MinDelay   -> first delta after the rising edge,
//   DeltaDelay(n) -> at the n-th high-frequency period,
//   MaxDelay   -> just before the falling edge.
// buildTlmModelLayout resolves this once into phase tables (each distinct
// target with its tmp variable; per mutant, its target and phase point), and
// both engines — this interpreter and the emitted native step — commit from
// them: one commit per distinct target except the active mutant's at the
// edge, one comparison against the active phase at every phase point.
//
// Mutant classes (fault collapsing): two mutants on one target whose phase
// points have nothing but a combinational sweep between them land the same
// tmp value on the same settled state, so they behave bit-identically. That
// holds for equal phase points and for phase points 0 and 1 (phase 1 is
// MaxDelay when hfRatio is 0, else DeltaDelay(1); the scheduler runs only a
// sweep between commitActiveAt(0) and commitActiveAt(1)), and for mutants
// that never land (kNoPhase). Every later pair has the HF processes between
// them. mutantClassSpec names a mutant's class by its canonical spec; the
// mutation analysis simulates one representative per class and copies its
// result to the other members.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "abstraction/compiled.h"
#include "abstraction/scalar_machine.h"
#include "ir/eval.h"
#include "ir/walk.h"
#include "mutation/adam.h"

namespace xlv::abstraction {

struct TlmModelStats {
  std::uint64_t transactions = 0;
  std::uint64_t processRuns = 0;
  std::uint64_t sweepPasses = 0;
  std::uint64_t commits = 0;
};

struct TlmModelConfig {
  /// High-frequency periods per clock cycle (0 = single-clock scheduler,
  /// Section 5.2.1; >0 = dual-clock scheduler, Section 5.2.2).
  int hfRatio = 0;
  /// Guard for designs whose combinational network is cyclic (rejected).
  bool allowCombLoops = false;
};

/// One mutated target and the tmp variable ADAM routes its update through.
struct MutantTarget {
  ir::SymbolId target = ir::kNoSymbol;
  ir::SymbolId tmpVar = ir::kNoSymbol;
};

/// Scheduler phase points a mutated target can commit at, in transaction
/// order: the first delta after the rising edge, HF periods 1..hfRatio, and
/// just before the falling edge (maxDelayPhase). kNoPhase never lands.
constexpr int kNoPhase = -1;
constexpr int kMinDelayPhase = 0;
constexpr int maxDelayPhase(int hfRatio) noexcept { return hfRatio + 1; }

/// The phase point mutant `spec` commits at while active. A DeltaDelay tick
/// outside 1..hfRatio names no HF period of the transaction and never lands.
inline int mutantPhasePoint(const mutation::MutantSpec& spec, int hfRatio) noexcept {
  switch (spec.kind) {
    case mutation::MutantKind::MinDelay:
      return kMinDelayPhase;
    case mutation::MutantKind::MaxDelay:
      return maxDelayPhase(hfRatio);
    case mutation::MutantKind::DeltaDelay:
      break;
  }
  return spec.deltaTicks >= 1 && spec.deltaTicks <= hfRatio ? spec.deltaTicks : kNoPhase;
}

/// The canonical spec of `spec`'s mutant class: its target at the class's
/// lowest phase point, written as the shipped generators write it — phase 0
/// (and so 1, which only a sweep separates from it) as {MinDelay, 0}, phase
/// p in 2..hfRatio as {DeltaDelay, p}, the max phase (hfRatio >= 1) as
/// {MaxDelay, 0}, and kNoPhase as {DeltaDelay, 0}. Two mutants of one
/// layout are one class exactly when their class specs are equal.
inline mutation::MutantSpec mutantClassSpec(const mutation::MutantSpec& spec, int hfRatio) {
  using mutation::MutantKind;
  const int phase = mutantPhasePoint(spec, hfRatio);
  if (phase == kMinDelayPhase || phase == 1) return {spec.targetSignal, MutantKind::MinDelay, 0};
  if (phase == kNoPhase) return {spec.targetSignal, MutantKind::DeltaDelay, 0};
  if (phase == maxDelayPhase(hfRatio)) return {spec.targetSignal, MutantKind::MaxDelay, 0};
  return {spec.targetSignal, MutantKind::DeltaDelay, phase};
}

/// The immutable, policy-independent part of an abstracted model: one
/// elaboration + compilation + levelization, shared read-only by every
/// session instantiated from it. Thread-safe to share once built.
struct TlmModelLayout {
  ir::Design design;   ///< owned copy: sessions outlive construction inputs
  TlmModelConfig cfg;
  CompiledDesign code;  ///< compiled process bodies (the abstraction product)
  std::vector<mutation::InjectedMutant> mutants;
  /// Mutant phase tables, derived from `mutants` once: the distinct mutated
  /// targets in first-mutant order, and per mutant the index of its target
  /// in that list and its phase point (mutantPhasePoint).
  std::vector<MutantTarget> mutantTargets;
  std::vector<int> mutantTargetOf;
  std::vector<int> mutantPhase;

  std::vector<int> mainRise, mainPost, mainFall, hfRise, hfFall;
  std::vector<int> sweepOrder;  ///< async process indices in topological order
  std::vector<std::vector<int>> sensitiveSlots;  ///< symbol -> sweep slots
};

using TlmModelLayoutPtr = std::shared_ptr<const TlmModelLayout>;

// Shared snapshot word layout: the one format of a session's state, saved
// and loaded by both engines (TlmIpModel::saveWords/loadWords and the
// emitted xlvn_save/xlvn_load behind NativeSession), so one campaign
// checkpoint serves either engine and a session can move between them:
//
//   [ cycle, anyDirty,
//     dirty[0..nSweep),                      one word per sweep slot,
//     (val, unk) per symbol in id order,
//     (val, unk) per array element, pools in array-symbol id order ]
//
// It is a state between scheduler() calls (input drives since the last
// transaction are captured through the dirty flags) and policy-independent
// (2-state sessions keep every unk word 0). The active mutant and the stats
// counters are session configuration and diagnostics, not state.

/// Word count of the shared snapshot layout for `layout`.
inline std::size_t nativeStateWords(const TlmModelLayout& layout) {
  std::size_t words = 2 + layout.sweepOrder.size() + 2 * layout.design.symbols.size();
  for (const auto& s : layout.design.symbols) {
    if (s.kind == ir::SymKind::Array) words += 2 * static_cast<std::size_t>(s.arraySize);
  }
  return words;
}

/// Build the shared layout for a (possibly injected) design. Throws
/// std::invalid_argument on an hfRatio without an HF clock, on processes
/// with unknown clocks, and on combinational cycles (unless allowed).
inline TlmModelLayoutPtr buildTlmModelLayout(
    const ir::Design& design, TlmModelConfig cfg,
    std::vector<mutation::InjectedMutant> mutants = {}) {
  auto layout = std::make_shared<TlmModelLayout>();
  layout->design = design;
  layout->cfg = cfg;
  layout->code = compileDesign(layout->design);
  layout->mutants = std::move(mutants);
  const ir::Design& d = layout->design;

  if (cfg.hfRatio > 0 && d.hfClock == ir::kNoSymbol) {
    throw std::invalid_argument("TlmIpModel: hfRatio set but design has no HF clock");
  }

  for (const auto& m : layout->mutants) {
    std::size_t t = 0;
    while (t < layout->mutantTargets.size() && layout->mutantTargets[t].target != m.target) ++t;
    if (t == layout->mutantTargets.size()) layout->mutantTargets.push_back({m.target, m.tmpVar});
    layout->mutantTargetOf.push_back(static_cast<int>(t));
    layout->mutantPhase.push_back(mutantPhasePoint(m.spec, cfg.hfRatio));
  }

  // Classify processes by clock and edge.
  std::vector<int> asyncProcs;
  for (std::size_t pi = 0; pi < d.processes.size(); ++pi) {
    const auto& p = d.processes[pi];
    if (!p.isSync) {
      asyncProcs.push_back(static_cast<int>(pi));
      continue;
    }
    const bool rising = p.edge == ir::EdgeKind::Rising;
    if (p.clock == d.mainClock) {
      if (p.postEdge) {
        layout->mainPost.push_back(static_cast<int>(pi));
      } else {
        (rising ? layout->mainRise : layout->mainFall).push_back(static_cast<int>(pi));
      }
    } else if (p.clock == d.hfClock) {
      (rising ? layout->hfRise : layout->hfFall).push_back(static_cast<int>(pi));
    } else {
      throw std::invalid_argument("TlmIpModel: process '" + p.name + "' uses unknown clock");
    }
  }

  // Topologically order the asynchronous processes by write->read signal
  // dependencies; build the dirty-marking index.
  const int n = static_cast<int>(asyncProcs.size());
  layout->sensitiveSlots.assign(d.symbols.size(), {});
  std::vector<std::set<ir::SymbolId>> writes(static_cast<std::size_t>(n));
  std::vector<std::set<ir::SymbolId>> reads(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    const auto& p = d.processes[static_cast<std::size_t>(asyncProcs[static_cast<std::size_t>(k)])];
    ir::collectWrites(*p.body, writes[static_cast<std::size_t>(k)]);
    for (ir::SymbolId s : p.sensitivity) reads[static_cast<std::size_t>(k)].insert(s);
  }
  // Edges: k -> m when k writes a symbol m reads.
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  for (int k = 0; k < n; ++k) {
    for (int m = 0; m < n; ++m) {
      if (k == m) continue;
      bool dep = false;
      for (ir::SymbolId s : writes[static_cast<std::size_t>(k)]) {
        if (reads[static_cast<std::size_t>(m)].count(s)) {
          dep = true;
          break;
        }
      }
      if (dep) {
        adj[static_cast<std::size_t>(k)].push_back(m);
        ++indeg[static_cast<std::size_t>(m)];
      }
    }
  }
  // Kahn topological sort.
  std::vector<int> order;
  std::vector<int> queue;
  for (int k = 0; k < n; ++k) {
    if (indeg[static_cast<std::size_t>(k)] == 0) queue.push_back(k);
  }
  while (!queue.empty()) {
    const int k = queue.back();
    queue.pop_back();
    order.push_back(k);
    for (int m : adj[static_cast<std::size_t>(k)]) {
      if (--indeg[static_cast<std::size_t>(m)] == 0) queue.push_back(m);
    }
  }
  if (static_cast<int>(order.size()) != n) {
    if (!cfg.allowCombLoops) {
      throw std::invalid_argument(
          "TlmIpModel: combinational cycle among asynchronous processes in '" + d.name + "'");
    }
    order.clear();
    for (int k = 0; k < n; ++k) order.push_back(k);
  }
  // sweepOrder[slot] = process index; slotOfK[k] = slot of async order k.
  layout->sweepOrder.resize(static_cast<std::size_t>(n));
  std::vector<int> slotOfK(static_cast<std::size_t>(n));
  for (int slot = 0; slot < n; ++slot) {
    layout->sweepOrder[static_cast<std::size_t>(slot)] =
        asyncProcs[static_cast<std::size_t>(order[static_cast<std::size_t>(slot)])];
    slotOfK[static_cast<std::size_t>(order[static_cast<std::size_t>(slot)])] = slot;
  }
  // Sensitivity: symbol -> sweep slots to dirty.
  for (int k = 0; k < n; ++k) {
    for (ir::SymbolId s : reads[static_cast<std::size_t>(k)]) {
      if (s == d.mainClock || s == d.hfClock) continue;
      layout->sensitiveSlots[static_cast<std::size_t>(s)].push_back(
          slotOfK[static_cast<std::size_t>(k)]);
    }
  }
  return layout;
}

template <class P>
class TlmIpModel {
 public:
  using Vec = typename P::Vec;

  /// Abstract a clean design (no mutants).
  TlmIpModel(const ir::Design& design, TlmModelConfig cfg)
      : TlmIpModel(buildTlmModelLayout(design, cfg)) {}

  /// Abstract an ADAM-injected design.
  TlmIpModel(const mutation::InjectedDesign& injected, TlmModelConfig cfg)
      : TlmIpModel(buildTlmModelLayout(injected.design, cfg, injected.mutants)) {}

  /// Instantiate a fresh session over a pre-built shared layout: cheap
  /// (per-instance value store only), safe to do concurrently.
  explicit TlmIpModel(TlmModelLayoutPtr layout)
      : layout_(std::move(layout)), machine_(layout_->design, layout_->code) {
    // HDL initialization semantics: every combinational process evaluates
    // once before the first transaction.
    dirty_.assign(layout_->sweepOrder.size(), 1);
    anyDirty_ = !dirty_.empty();
  }

  const ir::Design& design() const noexcept { return layout_->design; }
  const TlmModelLayoutPtr& layout() const noexcept { return layout_; }
  const TlmModelStats& stats() const noexcept { return stats_; }
  std::uint64_t cycle() const noexcept { return cycleCount_; }

  // --- port access -----------------------------------------------------------
  void setInput(ir::SymbolId sym, const Vec& v) {
    if (machine_.setScalar(sym, machine_.fromVec(v))) markDirty(sym);
  }
  void setInput(ir::SymbolId sym, std::uint64_t v) {
    setInput(sym, Vec::fromUint(design().symbol(sym).type.width, v));
  }
  void setInputByName(const std::string& name, std::uint64_t v) { setInput(mustFind(name), v); }
  /// Hot-path drive: identical semantics to setInput(sym, uint64) without
  /// the Vec round trip (the per-mutant campaign loop calls this once per
  /// port per cycle — see analysis::simulateMutant's de-stringed driver).
  void setInputUint(ir::SymbolId sym, std::uint64_t v) {
    if (machine_.setScalar(sym, SV{v & maskOf(machine_.width(sym)), 0})) markDirty(sym);
  }

  Vec value(ir::SymbolId sym) const { return machine_.toVec(sym); }
  std::uint64_t valueUint(ir::SymbolId sym) const noexcept { return machine_.valueUint(sym); }
  /// Both scalar planes, unmasked: the value+unknown comparison the golden
  /// recorder uses to detect endpoint activity (a 0 -> X transition is a
  /// real change valueUint alone would miss).
  SV rawValue(ir::SymbolId sym) const noexcept { return machine_.get(sym); }
  Vec arrayElem(ir::SymbolId sym, std::uint64_t idx) const {
    return machine_.arrayElem(sym, idx);
  }
  std::uint64_t valueUintByName(const std::string& name) const {
    return machine_.valueUint(mustFind(name));
  }

  // --- checkpointing ----------------------------------------------------------
  /// Append this session's state, taken between scheduler() calls, in the
  /// shared word layout: exactly nativeStateWords(layout) words. The write
  /// buffer is always drained at that boundary, so the state is exactly
  /// (cycle counter, dirty flags, machine values).
  void saveWords(std::vector<std::uint64_t>& out) const {
    const std::size_t base = out.size();
    out.resize(base + nativeStateWords(*layout_));
    std::uint64_t* o = out.data() + base;
    *o++ = cycleCount_;
    *o++ = anyDirty_ ? 1 : 0;
    for (char d : dirty_) *o++ = static_cast<std::uint64_t>(d);
    machine_.saveWords(o);
  }

  /// Restore a state saved by either engine over the same layout (typically
  /// the same TlmModelLayoutPtr), dropping any pending nonblocking writes.
  /// The active mutant selection is untouched — a mutant session
  /// fast-forwarding from a clean-run checkpoint keeps its own mutant
  /// active — and the stats counters keep accumulating. Throws
  /// std::invalid_argument on a word-count mismatch, before changing
  /// anything.
  void loadWords(const std::vector<std::uint64_t>& words) {
    if (words.size() != nativeStateWords(*layout_)) {
      throw std::invalid_argument("TlmIpModel: snapshot word count mismatch");
    }
    const std::uint64_t* in = words.data();
    cycleCount_ = *in++;
    anyDirty_ = *in++ != 0;
    for (char& d : dirty_) d = static_cast<char>(*in++);
    machine_.loadWords(in);
    nba_.clear();
  }

  // --- mutant control ---------------------------------------------------------
  int mutantCount() const noexcept { return static_cast<int>(layout_->mutants.size()); }
  const mutation::InjectedMutant& mutant(int id) const {
    return layout_->mutants.at(static_cast<std::size_t>(id));
  }
  /// Activate exactly one mutant (or none with id = -1).
  void activateMutant(int id) {
    if (id < -1 || id >= mutantCount()) {
      throw std::out_of_range("TlmIpModel: mutant id out of range");
    }
    activeMutant_ = id;
    activeTarget_ = -1;
    activePhase_ = kNoPhase;
    if (id >= 0) {
      activeTarget_ = layout_->mutantTargetOf[static_cast<std::size_t>(id)];
      activePhase_ = layout_->mutantPhase[static_cast<std::size_t>(id)];
    }
  }
  int activeMutant() const noexcept { return activeMutant_; }

  // --- execution ---------------------------------------------------------------
  /// One TLM transaction: one cycle of the main clock (Fig. 6b / Fig. 8b).
  void scheduler() {
    const TlmModelLayout& L = *layout_;
    ++stats_.transactions;
    ++cycleCount_;

    // Inputs changed since the last call settle first (stimulus phase).
    sweep();

    // Rising edge of clock: execute synchronous processes.
    setClock(L.design.mainClock, 1);
    runProcs(L.mainRise);
    // Edge commit: nonblocking writes plus every *inactive* mutated target.
    commitNba();
    for (std::size_t t = 0; t < L.mutantTargets.size(); ++t) {
      if (static_cast<int>(t) != activeTarget_) commitTarget(L.mutantTargets[t]);
    }
    sweep();

    // Post-edge samplers (sensor main flip-flops).
    if (!L.mainPost.empty()) {
      runProcs(L.mainPost);
      commitNba();
      sweep();
    }

    // First delta cycle: minimum-delay mutants land here (Fig. 9b).
    commitActiveAt(kMinDelayPhase);
    sweep();

    // High-frequency clock periods wrapped inside this transaction (Fig. 8b);
    // delta-delay mutants land at their period (Fig. 9d).
    for (int j = 1; j <= L.cfg.hfRatio; ++j) {
      commitActiveAt(j);
      sweep();
      setClock(L.design.hfClock, 1);
      runProcs(L.hfRise);
      commitNba();
      sweep();
      setClock(L.design.hfClock, 0);
      if (!L.hfFall.empty()) {
        runProcs(L.hfFall);
        commitNba();
        sweep();
      }
    }

    // Just before the falling edge: maximum-delay mutants (Fig. 9c).
    commitActiveAt(maxDelayPhase(L.cfg.hfRatio));
    sweep();

    // Falling edge of clock.
    setClock(L.design.mainClock, 0);
    runProcs(L.mainFall);
    commitNba();
    sweep();
  }

  /// Convenience: run n transactions with a stimulus callback.
  void run(std::uint64_t n,
           const std::function<void(std::uint64_t, TlmIpModel&)>& stimulus = {}) {
    for (std::uint64_t i = 0; i < n; ++i) {
      if (stimulus) stimulus(cycleCount_, *this);
      scheduler();
    }
  }

 private:
  void markDirty(ir::SymbolId s) {
    for (int slot : layout_->sensitiveSlots[static_cast<std::size_t>(s)]) {
      if (!dirty_[static_cast<std::size_t>(slot)]) {
        dirty_[static_cast<std::size_t>(slot)] = 1;
        anyDirty_ = true;
      }
    }
  }

  /// One levelized settling pass: run dirty async processes in topological
  /// order, committing each process's writes immediately so downstream
  /// processes (later slots) observe them within the same pass.
  void sweep() {
    if (!anyDirty_) return;
    ++stats_.sweepPasses;
    // A pass can re-dirty later slots only (topological order), except for
    // loops tolerated under allowCombLoops; iterate until clean.
    for (int round = 0; anyDirty_; ++round) {
      if (round > 64) {
        throw std::runtime_error("TlmIpModel: combinational iteration limit in '" +
                                 layout_->design.name + "'");
      }
      anyDirty_ = false;
      for (std::size_t slot = 0; slot < layout_->sweepOrder.size(); ++slot) {
        if (!dirty_[slot]) continue;
        dirty_[slot] = 0;
        ++stats_.processRuns;
        machine_.run(layout_->sweepOrder[slot], nba_);
        for (auto& w : nba_) {
          if (machine_.commit(w)) {
            ++stats_.commits;
            markDirty(w.sym);
          }
        }
        nba_.clear();
      }
    }
  }

  void runProcs(const std::vector<int>& procs) {
    for (int pi : procs) {
      ++stats_.processRuns;
      machine_.run(pi, nba_);
    }
  }

  /// Commit buffered nonblocking writes. ADAM rewrote the mutated targets'
  /// updates into tmp variables; commitTarget lands those.
  void commitNba() {
    for (auto& w : nba_) {
      if (machine_.commit(w)) {
        ++stats_.commits;
        markDirty(w.sym);
      }
    }
    nba_.clear();
  }

  /// target <= tmp, the mutated update ADAM deferred.
  void commitTarget(const MutantTarget& t) {
    ScalarWrite w;
    w.sym = t.target;
    w.value = machine_.get(t.tmpVar);
    if (machine_.commit(w)) {
      ++stats_.commits;
      markDirty(w.sym);
    }
  }

  /// Phase point `phase`: the active mutant's target commits if it lands here.
  void commitActiveAt(int phase) {
    if (activePhase_ == phase) {
      commitTarget(layout_->mutantTargets[static_cast<std::size_t>(activeTarget_)]);
    }
  }

  void setClock(ir::SymbolId clk, std::uint64_t v) {
    if (clk != ir::kNoSymbol) machine_.setScalar(clk, SV{v & 1, 0});
  }

  ir::SymbolId mustFind(const std::string& name) const {
    const ir::SymbolId s = design().findSymbol(name);
    if (s == ir::kNoSymbol) {
      throw std::invalid_argument("TlmIpModel: no symbol named '" + name + "'");
    }
    return s;
  }

  TlmModelLayoutPtr layout_;  ///< shared read-only; keeps design/code alive
  ScalarMachine<P> machine_;  ///< per-session native-word execution backend
  int activeMutant_ = -1;
  int activeTarget_ = -1;       ///< its index in mutantTargets, -1 = none
  int activePhase_ = kNoPhase;  ///< its phase point

  std::vector<char> dirty_;
  bool anyDirty_ = false;

  std::vector<ScalarWrite> nba_;
  std::uint64_t cycleCount_ = 0;
  TlmModelStats stats_;
};

}  // namespace xlv::abstraction
