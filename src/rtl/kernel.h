// Event-driven RTL simulation kernel with delta cycles.
//
// This is the "HDL simulator" substrate of the flow (paper Fig. 6a): on each
// clock edge the synchronous processes run, then asynchronous processes wake
// in delta-cycle iterations until the design settles. Signals update through
// a nonblocking write buffer committed at delta boundaries; a time wheel
// carries clock edges, testbench stimulus and transport-delayed writes.
//
// Intra-cycle timing model (documented in DESIGN.md):
//   cycle k occupies [kT, (k+1)T) with period T:
//     kT           stimulus point (testbench drives inputs; logic settles)
//     kT + T/4     main clock rising edge
//     kT + T/4 + j*S   high-frequency tick j (j = 1..R), S = (T/2)/(R+1)
//     kT + 3T/4    main clock falling edge
//   The Razor detection window [rising, falling] is exactly half a period,
//   and the R high-frequency ticks subdivide it — giving the Counter-based
//   sensor its resolution of S picoseconds, matching the paper's "maximum
//   resolution is the HF_CLK period".
//
// Delay injection: injectDelay(sig, d) turns every update of `sig` into a
// transport-delayed assignment (VHDL `after d ps`), the mechanism the paper
// uses to validate TLM mutants against RTL (Section 8.5).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/elaborate.h"
#include "ir/eval.h"
#include "rtl/vcd.h"
#include "util/log.h"

namespace xlv::rtl {

struct KernelStats {
  std::uint64_t mainCycles = 0;
  std::uint64_t deltaCycles = 0;
  std::uint64_t processRuns = 0;
  std::uint64_t commits = 0;
  std::uint64_t scheduledEvents = 0;
};

struct KernelConfig {
  std::uint64_t mainPeriodPs = 1000;
  int hfRatio = 0;           ///< 0 = no high-frequency clock
  int deltaLimit = 10000;    ///< combinational-loop guard
};

template <class P>
class RtlSimulator {
 public:
  using Vec = typename P::Vec;
  using Stimulus = std::function<void(std::uint64_t cycle, RtlSimulator&)>;

  RtlSimulator(const ir::Design& design, KernelConfig cfg)
      : d_(design), cfg_(cfg), store_(design), exec_(design, store_) {
    if (cfg_.hfRatio > 0 && d_.hfClock == ir::kNoSymbol) {
      throw std::invalid_argument("RtlSimulator: hfRatio set but design has no HF clock");
    }
    buildIndices();
    // HDL initialization semantics: every (combinational) process executes
    // once at simulation start so outputs reflect the initial signal values.
    for (std::size_t pi = 0; pi < d_.processes.size(); ++pi) {
      if (!d_.processes[pi].isSync) {
        wokenFlag_[pi] = true;
        woken_.push_back(static_cast<int>(pi));
      }
    }
  }

  const ir::Design& design() const noexcept { return d_; }
  ir::ValueStore<P>& store() noexcept { return store_; }
  const ir::ValueStore<P>& store() const noexcept { return store_; }
  const KernelStats& stats() const noexcept { return stats_; }
  std::uint64_t timePs() const noexcept { return timePs_; }

  void setStimulus(Stimulus s) { stimulus_ = std::move(s); }
  void attachVcd(VcdWriter* vcd) noexcept { vcd_ = vcd; }

  /// Drive an input port immediately (normally called from the stimulus
  /// callback, which runs at the cycle's stimulus point).
  void setInput(ir::SymbolId sym, const Vec& v) {
    if (!store_.get(sym).identical(v)) {
      store_.set(sym, v);
      traceChange(sym);
      markChanged(sym);
    }
  }
  void setInput(ir::SymbolId sym, std::uint64_t v) {
    setInput(sym, Vec::fromUint(d_.symbol(sym).type.width, v));
  }
  void setInputByName(const std::string& name, std::uint64_t v) {
    setInput(mustFind(name), v);
  }

  const Vec& value(ir::SymbolId sym) const noexcept { return store_.get(sym); }
  std::uint64_t valueUint(ir::SymbolId sym) const noexcept { return store_.get(sym).toUint(); }
  std::uint64_t valueUintByName(const std::string& name) const {
    return store_.get(mustFind(name)).toUint();
  }

  /// All subsequent updates of `sym` become transport-delayed by `delayPs`.
  void injectDelay(ir::SymbolId sym, std::uint64_t delayPs) { delayOf_[sym] = delayPs; }
  void clearDelay(ir::SymbolId sym) { delayOf_.erase(sym); }
  void clearAllDelays() { delayOf_.clear(); }

  /// Advance the simulation by `n` main-clock cycles.
  void runCycles(std::uint64_t n) {
    const std::uint64_t target = cycle_ + n;
    while (cycle_ < target) {
      stepCycle();
    }
  }

 private:
  // --- construction-time indices -------------------------------------------
  void buildIndices() {
    sensitiveTo_.assign(d_.symbols.size(), {});
    for (std::size_t pi = 0; pi < d_.processes.size(); ++pi) {
      const auto& p = d_.processes[pi];
      if (p.isSync) {
        const bool rising = p.edge == ir::EdgeKind::Rising;
        if (p.clock == d_.mainClock) {
          if (p.postEdge) {
            mainPost_.push_back(static_cast<int>(pi));
          } else {
            (rising ? mainRise_ : mainFall_).push_back(static_cast<int>(pi));
          }
        } else if (p.clock == d_.hfClock) {
          (rising ? hfRise_ : hfFall_).push_back(static_cast<int>(pi));
        } else {
          throw std::invalid_argument("RtlSimulator: sync process '" + p.name +
                                      "' uses an unknown clock");
        }
      } else {
        for (ir::SymbolId s : p.sensitivity) {
          // Clock symbols never feed combinational sensitivity.
          if (s == d_.mainClock || s == d_.hfClock) continue;
          sensitiveTo_[static_cast<std::size_t>(s)].push_back(static_cast<int>(pi));
        }
      }
    }
  }

  // --- per-cycle schedule ----------------------------------------------------
  void stepCycle() {
    const std::uint64_t T = cfg_.mainPeriodPs;
    const std::uint64_t base = cycle_ * T;

    // Stimulus point.
    advanceTo(base);
    if (stimulus_) stimulus_(cycle_, *this);
    settle();

    // Rising edge.
    advanceTo(base + T / 4);
    setClockValue(d_.mainClock, 1);
    runProcesses(mainRise_);
    settle();

    // Post-edge samplers: run after the edge's commits have settled but
    // before any transport-delayed update can mature (those carry t > edge).
    if (!mainPost_.empty()) {
      runProcesses(mainPost_);
      settle();
    }

    // High-frequency ticks inside the detection window.
    if (cfg_.hfRatio > 0) {
      const std::uint64_t S = (T / 2) / static_cast<std::uint64_t>(cfg_.hfRatio + 1);
      for (int j = 1; j <= cfg_.hfRatio; ++j) {
        advanceTo(base + T / 4 + static_cast<std::uint64_t>(j) * S);
        setClockValue(d_.hfClock, 1);
        runProcesses(hfRise_);
        settle();
        // Falling half of the hf pulse, half a tick later.
        advanceTo(base + T / 4 + static_cast<std::uint64_t>(j) * S + S / 2);
        setClockValue(d_.hfClock, 0);
        runProcesses(hfFall_);
        settle();
      }
    }

    // Falling edge.
    advanceTo(base + 3 * T / 4);
    setClockValue(d_.mainClock, 0);
    runProcesses(mainFall_);
    settle();

    // Drain any transport-delayed writes landing before the next cycle.
    advanceTo(base + T - 1);

    ++cycle_;
    ++stats_.mainCycles;
  }

  /// Process all time-wheel events with t <= `t`, then move time to `t`.
  void advanceTo(std::uint64_t t) {
    while (!wheel_.empty() && wheel_.begin()->first <= t) {
      auto it = wheel_.begin();
      timePs_ = it->first;
      traceTime();
      auto writes = std::move(it->second);
      wheel_.erase(it);
      for (auto& w : writes) {
        if (ir::commitWrite(store_, w)) {
          ++stats_.commits;
          traceChange(w.sym);
          markChanged(w.sym);
        }
      }
      settle();
    }
    timePs_ = t;
    traceTime();
  }

  void setClockValue(ir::SymbolId clk, std::uint64_t v) {
    store_.set(clk, Vec::fromUint(1, v));
    traceChange(clk);
  }

  void runProcesses(const std::vector<int>& procs) {
    for (int pi : procs) {
      ++stats_.processRuns;
      exec_.run(*d_.processes[static_cast<std::size_t>(pi)].body, nba_);
    }
    flushNba();
  }

  /// Move buffered nonblocking writes either to the store (normal) or onto
  /// the time wheel (signals with injected transport delay).
  void flushNba() {
    for (auto& w : nba_) {
      if (!delayOf_.empty()) {
        auto it = delayOf_.find(w.sym);
        if (it != delayOf_.end() && it->second > 0) {
          wheel_[timePs_ + it->second].push_back(std::move(w));
          ++stats_.scheduledEvents;
          continue;
        }
      }
      if (ir::commitWrite(store_, w)) {
        ++stats_.commits;
        traceChange(w.sym);
        markChanged(w.sym);
      }
    }
    nba_.clear();
  }

  void markChanged(ir::SymbolId s) {
    for (int pi : sensitiveTo_[static_cast<std::size_t>(s)]) {
      if (!wokenFlag_[static_cast<std::size_t>(pi)]) {
        wokenFlag_[static_cast<std::size_t>(pi)] = true;
        woken_.push_back(pi);
      }
    }
  }

  /// Delta-cycle loop: run woken async processes until stable.
  void settle() {
    int deltas = 0;
    while (!woken_.empty()) {
      if (++deltas > cfg_.deltaLimit) {
        throw std::runtime_error("RtlSimulator: delta limit exceeded (combinational loop?) in '" +
                                 d_.name + "'");
      }
      ++stats_.deltaCycles;
      auto batch = std::move(woken_);
      woken_.clear();
      for (int pi : batch) wokenFlag_[static_cast<std::size_t>(pi)] = false;
      for (int pi : batch) {
        ++stats_.processRuns;
        exec_.run(*d_.processes[static_cast<std::size_t>(pi)].body, nba_);
      }
      flushNba();
    }
  }

  void traceTime() {
    if (vcd_) vcd_->timestamp(timePs_);
  }
  void traceChange(ir::SymbolId s) {
    if (vcd_ && d_.symbol(s).kind != ir::SymKind::Array) {
      vcd_->timestamp(timePs_);
      vcd_->change(s, store_.get(s).toString());
    }
  }

  ir::SymbolId mustFind(const std::string& name) const {
    const ir::SymbolId s = d_.findSymbol(name);
    if (s == ir::kNoSymbol) {
      throw std::invalid_argument("RtlSimulator: no symbol named '" + name + "'");
    }
    return s;
  }

  const ir::Design& d_;
  KernelConfig cfg_;
  ir::ValueStore<P> store_;
  ir::Executor<P> exec_;

  std::vector<std::vector<int>> sensitiveTo_;
  std::vector<int> mainRise_, mainPost_, mainFall_, hfRise_, hfFall_;

  std::vector<ir::SignalWrite<P>> nba_;
  std::vector<int> woken_;
  std::vector<char> wokenFlag_ = std::vector<char>(d_.processes.size(), 0);

  std::map<std::uint64_t, std::vector<ir::SignalWrite<P>>> wheel_;
  std::map<ir::SymbolId, std::uint64_t> delayOf_;

  Stimulus stimulus_;
  VcdWriter* vcd_ = nullptr;

  std::uint64_t timePs_ = 0;
  std::uint64_t cycle_ = 0;
  KernelStats stats_;
};

}  // namespace xlv::rtl
