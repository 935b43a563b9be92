// Generative differential test of the native emitter: interpreter ≡ native
// on seeded random designs (ROADMAP "first the tester").
//
// Each seed builds a design of 2–5 instances of 1–3 random cell modules.
// A cell has widths 1–64, a chain of combinational expressions over the
// opcode set (slices, concats, shifts by a live amount, signed and unsigned
// compares, div/mod by a value that may be zero, selects, reductions), an
// optional array of random size, registers with init values, a process
// variable, bit-range stores and random constants; designs with a
// high-frequency clock add an HF-clocked process that samples the register
// and delta mutants. Some instances of one cell get a different width or
// different constants, so the emitter sees both processes that may share
// one compiled body and processes that must not.
//
// For each seed and both value policies, expectLockStep (lock_step.h) runs
// the design with no mutant and with one random ADAM mutant: every symbol,
// both planes and the state word image, every cycle. A second pass swaps
// state between the engines mid-run (the interpreter's words into a fresh
// native session, the native session's into a fresh interpreter) and runs
// all four sessions in lock-step to the end. A third pass injects every
// phase on one register and checks the class rule: two sessions whose
// active mutants share a class keep equal state images every cycle, on
// the interpreter (no compiler needed) and on the native engine. A failure
// names its seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "abstraction/tlm_model.h"
#include "ir/builder.h"
#include "ir/elaborate.h"
#include "lock_step.h"
#include "mutation/adam.h"
#include "util/prng.h"

namespace xlv::abstraction {
namespace {

using namespace xlv::ir;
using mutation::MutantKind;
using mutation::MutantSpec;
using util::Prng;

constexpr std::uint64_t kFirstSeed = 1;
constexpr int kSeeds = 6;
constexpr int kCycles = 24;
constexpr int kHandoffAt = kCycles / 2;

/// Expression generator for one cell: structure from `s`, constant values
/// from `k`, so two cells built from one structure seed with different
/// constant seeds differ only in their constants.
class ExprGen {
 public:
  ExprGen(Prng& s, Prng& k, int width, const Arr* mem) : s_(s), k_(k), w_(width), mem_(mem) {}

  /// A `w_`-bit expression over `pool` (every entry `w_` bits wide).
  Ex gen(const std::vector<Ex>& pool, int depth) {
    if (depth <= 0) return leaf(pool);
    const auto sub = [&] { return gen(pool, depth - 1); };
    switch (s_.below(12)) {
      case 0: return leaf(pool);
      case 1: {
        Ex a = sub(), b = sub();
        switch (s_.below(6)) {
          case 0: return a & b;
          case 1: return a | b;
          case 2: return a ^ b;
          case 3: return a + b;
          case 4: return a - b;
          default: return a * b;
        }
      }
      case 2: {
        // Div/mod by a masked value: zero on some cycles, an X source in
        // the 4-state policy.
        Ex a = sub();
        Ex b = sub() & constant();
        return s_.chance(0.5) ? a / b : a % b;
      }
      case 3: {
        // Shift by a live amount that can reach past the width.
        Ex a = sub();
        Ex amt = zext(slice(sub(), std::min(w_ - 1, 6), 0), 7);
        switch (s_.below(3)) {
          case 0: return shl(a, amt);
          case 1: return shr(a, amt);
          default: return ashr(a, amt);
        }
      }
      case 4: return zext(compare(sub(), sub()), w_);
      case 5: {
        const int hi = static_cast<int>(s_.below(static_cast<std::uint64_t>(w_)));
        const int lo = static_cast<int>(s_.below(static_cast<std::uint64_t>(hi + 1)));
        return zext(slice(sub(), hi, lo), w_);
      }
      case 6: {
        if (w_ < 2) return ~sub();
        const int cut = 1 + static_cast<int>(s_.below(static_cast<std::uint64_t>(w_ - 1)));
        return concat(slice(sub(), cut - 1, 0), slice(sub(), w_ - 1, cut));
      }
      case 7:
        switch (s_.below(6)) {
          case 0: return ~sub();
          case 1: return neg(sub());
          case 2: return zext(redand(sub()), w_);
          case 3: return zext(redor(sub()), w_);
          case 4: return zext(redxor(sub()), w_);
          default: return zext(bnot(sub()), w_);
        }
      case 8: return sel(compare(sub(), sub()), sub(), sub());
      case 9: {
        if (w_ < 2) return sub();
        const int hi = static_cast<int>(s_.below(static_cast<std::uint64_t>(w_ - 1)));
        return sext(slice(sub(), hi, 0), w_);
      }
      case 10:
        if (mem_ != nullptr) return at(*mem_, sub());
        return sub() ^ constant();
      default: return sub() + constant();
    }
  }

  Ex constant() { return lit(w_, k_.bits(w_)); }

 private:
  Ex leaf(const std::vector<Ex>& pool) {
    if (s_.chance(0.25)) return constant();
    return pool[static_cast<std::size_t>(s_.below(pool.size()))];
  }

  /// A 1-bit compare; signed when both operands are (signed wires, or a
  /// signed constant against one).
  Ex compare(Ex a, Ex b) {
    if (a.isSigned() && s_.chance(0.5)) {
      b = litS(w_, static_cast<std::int64_t>(k_.bits(w_)));
    }
    switch (s_.below(6)) {
      case 0: return a == b;
      case 1: return a != b;
      case 2: return a < b;
      case 3: return a <= b;
      case 4: return a > b;
      default: return a >= b;
    }
  }

  Prng& s_;
  Prng& k_;
  int w_;
  const Arr* mem_;
};

/// One random cell: ports clk, a (in), q (out), plus hf when the design
/// has a high-frequency clock. Its register `r` is the mutant target.
std::shared_ptr<const Module> buildCell(std::uint64_t structSeed, std::uint64_t constSeed,
                                        int width, bool hf) {
  Prng s(structSeed);
  Prng k(constSeed);
  ModuleBuilder mb("cell");
  const Sig clk = mb.clock("clk");
  const Sig a = mb.in("a", width);
  const Sig q = mb.out("q", width);
  const Sig r = mb.signalInit("r", width, k.bits(width));
  const Sig r2 = mb.signalInit("r2", width, k.bits(width));
  const Sig v = mb.var("v", width);
  Arr memStore;
  const Arr* mem = nullptr;
  if (s.chance(0.6)) {
    memStore = mb.array("mem", width, 1 + static_cast<int>(s.below(7)));
    if (s.chance(0.5)) {
      std::vector<std::uint64_t> image(static_cast<std::size_t>(memStore.size));
      for (auto& word : image) word = k.bits(width);
      mb.initArray(memStore, image);
    }
    mem = &memStore;
  }
  ExprGen g(s, k, width, mem);

  std::vector<Ex> pool = {Ex(a), Ex(r), Ex(r2)};
  if (hf) {
    const Sig hfClk = mb.clock("hf", ClockRole::HighFreq);
    const Sig h = mb.signalInit("h", width, k.bits(width));
    // The HF process samples the register, as a Counter monitor samples its
    // path, so the HF period a delay mutant lands in is observable.
    mb.onRising("tick", hfClk,
                [&](ProcBuilder& p) { p.assign(h, g.gen({Ex(a), Ex(h)}, 1) ^ Ex(r)); });
    pool.push_back(Ex(h));
  }
  const int wires = 1 + static_cast<int>(s.below(4));
  for (int i = 0; i < wires; ++i) {
    const Sig w = mb.signal("w" + std::to_string(i), width, s.chance(0.25));
    const Ex e = g.gen(pool, 1 + static_cast<int>(s.below(3)));
    mb.comb("c" + std::to_string(i), [&](ProcBuilder& p) { p.assign(w, e); });
    pool.push_back(Ex(w));
  }
  const Ex next = g.gen(pool, 2);
  const Ex other = g.gen(pool, 2);
  const Ex cond = g.gen(pool, 1);
  const Ex memIdx = g.gen(pool, 1);
  const int hi = static_cast<int>(s.below(static_cast<std::uint64_t>(width)));
  const int lo = static_cast<int>(s.below(static_cast<std::uint64_t>(hi + 1)));
  const bool useSwitch = s.chance(0.3);
  mb.onRising("seq", clk, [&](ProcBuilder& p) {
    p.assign(v, next);
    p.assignRange(v, hi, lo, other);
    if (useSwitch) {
      p.switch_(zext(slice(Ex(a), std::min(width - 1, 1), 0), 2),
                {{{0}, [&] { p.assign(r, Ex(v)); }}, {{1, 3}, [&] { p.assign(r, other); }}},
                [&] { p.assign(r, next); });
    } else {
      p.if_(redor(cond), [&] { p.assign(r, Ex(v)); }, [&] { p.assign(r, other); });
    }
    p.assignRange(r2, hi, lo, Ex(v) ^ Ex(r2));
    if (mem != nullptr) p.write(*mem, memIdx, Ex(v) + Ex(r));
  });
  const Ex out = g.gen(pool, 1);
  mb.comb("out", [&](ProcBuilder& p) { p.assign(q, out); });
  return mb.finish();
}

struct RandomDesign {
  Design design;
  int hfRatio = 0;
  std::vector<std::string> registers;  ///< mutant-able targets, one per instance
};

RandomDesign buildDesign(std::uint64_t seed) {
  Prng rng(seed);
  RandomDesign out;
  const bool hf = rng.chance(0.4);
  out.hfRatio = hf ? 2 + static_cast<int>(rng.below(2)) : 0;

  ModuleBuilder top("rand" + std::to_string(seed));
  const Sig clk = top.clock("clk");
  const Sig hfClk = hf ? top.clock("hf", ClockRole::HighFreq) : Sig{};
  std::vector<Sig> inputs;
  const int nIn = 1 + static_cast<int>(rng.below(3));
  for (int i = 0; i < nIn; ++i) {
    inputs.push_back(top.in("x" + std::to_string(i), 1 + static_cast<int>(rng.below(64))));
  }

  struct Cell {
    std::uint64_t structSeed, constSeed;
    int width;
  };
  std::vector<Cell> cells(1 + rng.below(3));
  for (Cell& c : cells) c = {rng.next(), rng.next(), 1 + static_cast<int>(rng.below(64))};

  // Identical (cell, width, constants) variants reuse one module.
  std::map<std::tuple<std::uint64_t, std::uint64_t, int>, std::shared_ptr<const Module>> built;
  const int nInst = 2 + static_cast<int>(rng.below(4));
  std::vector<Sig> outs;
  for (int i = 0; i < nInst; ++i) {
    Cell c = cells[rng.below(cells.size())];
    if (rng.chance(0.3)) c.width = 1 + static_cast<int>(rng.below(64));
    if (rng.chance(0.3)) c.constSeed = rng.next();
    auto& module = built[{c.structSeed, c.constSeed, c.width}];
    if (module == nullptr) module = buildCell(c.structSeed, c.constSeed, c.width, hf);

    const std::string n = std::to_string(i);
    const Sig in = top.signal("in" + n, c.width);
    const Sig q = top.signal("q" + n, c.width);
    const Sig src = inputs[rng.below(inputs.size())];
    const Sig prev = outs.empty() ? inputs[0] : outs.back();
    top.comb("drive" + n, [&](ProcBuilder& p) {
      p.assign(in, fit(Ex(src), c.width) ^ fit(Ex(prev), c.width));
    });
    std::vector<std::pair<std::string, Sig>> ports = {{"clk", clk}, {"a", in}, {"q", q}};
    if (hf) ports.emplace_back("hf", hfClk);
    top.instance("u" + n, module, ports);
    outs.push_back(q);
    out.registers.push_back("u" + n + ".r");
  }
  const Sig y = top.out("y", 64);
  top.comb("collect", [&](ProcBuilder& p) {
    Ex acc = zext(Ex(outs[0]), 64);
    for (std::size_t i = 1; i < outs.size(); ++i) {
      acc = acc ^ shl(zext(Ex(outs[i]), 64), static_cast<int>(i));
    }
    p.assign(y, acc);
  });
  out.design = elaborate(*top.finish());
  return out;
}

/// One random mutant on one instance's register.
MutantSpec randomMutant(std::uint64_t seed, const RandomDesign& rd) {
  Prng rng(seed ^ 0x6d757461ull);
  MutantSpec spec;
  spec.targetSignal = rd.registers[rng.below(rd.registers.size())];
  const std::uint64_t kinds = rd.hfRatio > 0 ? 3 : 2;
  spec.kind = mutation::kMutantKinds[rng.below(kinds)];
  if (spec.kind == MutantKind::DeltaDelay) {
    spec.deltaTicks = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(rd.hfRatio)));
  }
  return spec;
}

std::uint64_t randomStimulus(std::uint64_t seed, std::uint64_t c, SymbolId sym) {
  return Prng(seed * 0x9e3779b97f4a7c15ull + c * 0x100000001b3ull + sym).next();
}

/// expectLockStep over every seed's design, with no mutant and with its
/// random mutant; `handoffAt` as in expectLockStep.
template <class P>
void lockStepEverySeed(int handoffAt) {
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TlmModelLayoutPtr layout;
    try {
      const RandomDesign rd = buildDesign(seed);
      const auto injected = mutation::injectMutants(rd.design, {randomMutant(seed, rd)});
      layout = buildTlmModelLayout(injected.design, TlmModelConfig{rd.hfRatio, false},
                                   injected.mutants);
    } catch (const std::exception& e) {
      FAIL() << "seed " << seed << ": generator produced an invalid design: " << e.what();
    }
    const auto stimulus = [seed](std::uint64_t c, SymbolId sym) {
      return randomStimulus(seed, c, sym);
    };
    for (const int mutant : {-1, 0}) {
      SCOPED_TRACE("mutant " + std::to_string(mutant));
      expectLockStep<P>(layout, kCycles, mutant, stimulus, handoffAt);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Every phase on one random register of `rd`: MinDelay, MaxDelay and, on
/// a design with an HF clock, DeltaDelay 1..hfRatio plus one tick past it
/// (a tick that never lands).
std::vector<MutantSpec> everyPhase(std::uint64_t seed, const RandomDesign& rd) {
  Prng rng(seed ^ 0x70686173ull);
  const std::string target = rd.registers[rng.below(rd.registers.size())];
  std::vector<MutantSpec> specs = {{target, MutantKind::MinDelay, 0},
                                   {target, MutantKind::MaxDelay, 0}};
  for (int tick = 1; rd.hfRatio > 0 && tick <= rd.hfRatio + 1; ++tick) {
    specs.push_back({target, MutantKind::DeltaDelay, tick});
  }
  return specs;
}

/// Run two sessions built from `engine` (a layout or a native library),
/// mutant `a` active in one and `b` in the other, on the seed's stimulus;
/// the first cycle after which their saved word images differ, or -1.
template <class Session, class Engine>
int firstImageDifference(const Engine& engine, const TlmModelLayout& layout, int a, int b,
                         std::uint64_t seed) {
  Session sa(engine);
  Session sb(engine);
  sa.activateMutant(layout.mutants[static_cast<std::size_t>(a)].id);
  sb.activateMutant(layout.mutants[static_cast<std::size_t>(b)].id);
  std::vector<std::uint64_t> wa, wb;
  for (int c = 0; c < kCycles; ++c) {
    for (Session* s : {&sa, &sb}) {
      for (SymbolId in : layout.design.inputs) {
        s->setInputUint(in, randomStimulus(seed, static_cast<std::uint64_t>(c), in));
      }
      s->scheduler();
    }
    wa.clear();
    sa.saveWords(wa);
    wb.clear();
    sb.saveWords(wb);
    if (wa != wb) return c;
  }
  return -1;
}

template <class P>
class NativeRandomTypedTest : public ::testing::Test {};
using Policies = ::testing::Types<hdt::FourState, hdt::TwoState>;
TYPED_TEST_SUITE(NativeRandomTypedTest, Policies);

TYPED_TEST(NativeRandomTypedTest, RandomDesignsRunInLockStep) {
  XLV_REQUIRE_TOOLCHAIN();
  lockStepEverySeed<TypeParam>(-1);
}

TYPED_TEST(NativeRandomTypedTest, RandomDesignsSwapEnginesMidRun) {
  XLV_REQUIRE_TOOLCHAIN();
  lockStepEverySeed<TypeParam>(kHandoffAt);
}

// The class rule (mutantClassSpec) on generated designs: mutants of one
// class leave the same state, cycle by cycle, on the interpreter and — with
// a toolchain — on the native engine. Mutants of different classes must
// leave different states on some seed, or the check would be vacuous.
TYPED_TEST(NativeRandomTypedTest, SameClassMutantsLeaveEqualStateImages) {
  using P = TypeParam;
  const bool native = nativeToolchainAvailable();
  int distinctClassesThatDiffer = 0;
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RandomDesign rd = buildDesign(seed);
    const auto injected = mutation::injectMutants(rd.design, everyPhase(seed, rd));
    const TlmModelLayoutPtr layout = buildTlmModelLayout(
        injected.design, TlmModelConfig{rd.hfRatio, false}, injected.mutants);
    const NativeLibraryPtr lib = native ? getNativeLibrary(*layout, kFourState<P>) : nullptr;
    ASSERT_TRUE(!native || lib != nullptr) << "seed " << seed << ": native build failed";
    int pairs = 0;
    const int n = static_cast<int>(layout->mutants.size());
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        const int interp = firstImageDifference<TlmIpModel<P>>(layout, *layout, a, b, seed);
        if (mutantClassSpec(layout->mutants[static_cast<std::size_t>(a)].spec, rd.hfRatio) !=
            mutantClassSpec(layout->mutants[static_cast<std::size_t>(b)].spec, rd.hfRatio)) {
          distinctClassesThatDiffer += interp >= 0 ? 1 : 0;
          continue;
        }
        ++pairs;
        EXPECT_EQ(-1, interp) << "seed " << seed << ": mutants " << a << " and " << b
                              << " share a class, but their interpreter state images "
                                 "differ at cycle " << interp;
        if (lib != nullptr) {
          const int nat = firstImageDifference<NativeSession>(lib, *layout, a, b, seed);
          EXPECT_EQ(-1, nat) << "seed " << seed << ": mutants " << a << " and " << b
                             << " share a class, but their native state images differ "
                                "at cycle " << nat;
        }
      }
    }
    EXPECT_GT(pairs, 0) << "seed " << seed << ": no class of two or more members";
  }
  EXPECT_GT(distinctClassesThatDiffer, 0)
      << "no two mutants of different classes ever left different states";
}

}  // namespace
}  // namespace xlv::abstraction
