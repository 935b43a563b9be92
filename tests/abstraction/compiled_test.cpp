// Compiled scalar backend: every opcode cross-checked against the
// tree-interpreting RTL kernel, on a hand-built "op zoo" design and on
// randomized stimuli sweeps (property: compiled == interpreted, cycle by
// cycle, for both value policies).
#include <gtest/gtest.h>

#include "abstraction/compiled.h"
#include "abstraction/tlm_model.h"
#include "ir/builder.h"
#include "ir/elaborate.h"
#include "rtl/kernel.h"
#include "util/prng.h"

namespace xlv::abstraction {
namespace {

using namespace xlv::ir;
using rtl::KernelConfig;
using rtl::RtlSimulator;

/// A design exercising every IR operator the compiler must translate:
/// arithmetic (incl. div/mod), signed/unsigned comparisons in both
/// directions, variable shifts, reductions, concat/slice/sext, ternaries,
/// case with multi-labels and default, range assignment, array read/write,
/// variables.
Design opZoo() {
  ModuleBuilder mb("zoo");
  auto clk = mb.clock("clk");
  auto a = mb.in("a", 16);
  auto b = mb.in("b", 16);
  auto sa = mb.in("sa", 16, /*isSigned=*/true);
  auto sb = mb.in("sb", 16, /*isSigned=*/true);
  auto sel4 = mb.in("sel4", 2);

  auto arith = mb.signal("arith", 16);
  auto divmod = mb.signal("divmod", 16);
  auto cmps = mb.signal("cmps", 8);
  auto shifts = mb.signal("shifts", 16);
  auto reds = mb.signal("reds", 4);
  auto structural = mb.signal("structural", 24);
  auto cased = mb.signal("cased", 16);
  auto ranged = mb.signal("ranged", 16);
  auto viaVar = mb.signal("via_var", 16);
  auto tmp = mb.var("tmp", 16);
  auto mem = mb.array("mem", 16, 8);
  auto memOut = mb.signal("mem_out", 16);

  mb.onRising("p_arith", clk, [&](ProcBuilder& p) {
    p.assign(arith, (Ex(a) + Ex(b)) * (Ex(a) - Ex(b)) + neg(Ex(b)));
  });
  mb.onRising("p_divmod", clk, [&](ProcBuilder& p) {
    p.assign(divmod, (Ex(a) / (Ex(b) | lit(16, 1))) ^ (Ex(a) % (Ex(b) | lit(16, 3))));
  });
  mb.onRising("p_cmps", clk, [&](ProcBuilder& p) {
    Ex c0 = Ex(a) < Ex(b);
    Ex c1 = Ex(a) <= Ex(b);
    Ex c2 = Ex(a) > Ex(b);
    Ex c3 = Ex(a) >= Ex(b);
    Ex c4 = Ex(sa) < Ex(sb);
    Ex c5 = Ex(sa) >= Ex(sb);
    Ex c6 = Ex(a) == Ex(b);
    Ex c7 = Ex(a) != Ex(b);
    p.assign(cmps, concat(concat(concat(c7, c6), concat(c5, c4)),
                          concat(concat(c3, c2), concat(c1, c0))));
  });
  mb.onRising("p_shifts", clk, [&](ProcBuilder& p) {
    const Ex amt = slice(Ex(b), 3, 0);
    p.assign(shifts, shl(Ex(a), amt) ^ shr(Ex(a), amt) ^ ashr(Ex(sa), amt));
  });
  mb.onRising("p_reds", clk, [&](ProcBuilder& p) {
    p.assign(reds, concat(concat(redand(Ex(a)), redor(Ex(a))),
                          concat(redxor(Ex(a)), bnot(Ex(a)))));
  });
  mb.onRising("p_structural", clk, [&](ProcBuilder& p) {
    p.assign(structural,
             concat(slice(Ex(a), 11, 4), sext(slice(Ex(sa), 7, 0), 16)));
  });
  mb.onRising("p_case", clk, [&](ProcBuilder& p) {
    p.switch_(Ex(sel4),
              {{{0}, [&] { p.assign(cased, Ex(a) & Ex(b)); }},
               {{1, 2}, [&] { p.assign(cased, sel(Ex(a) < Ex(b), Ex(a), Ex(b))); }}},
              [&] { p.assign(cased, ~Ex(a)); });
  });
  mb.onRising("p_ranged", clk, [&](ProcBuilder& p) {
    p.assignRange(ranged, 7, 0, slice(Ex(a), 15, 8));
    p.assignRange(ranged, 15, 8, slice(Ex(b), 7, 0));
  });
  mb.onRising("p_var", clk, [&](ProcBuilder& p) {
    p.assign(tmp, Ex(a) ^ Ex(b));       // immediate
    p.assign(viaVar, Ex(tmp) + Ex(tmp));  // sees the updated variable
  });
  mb.onRising("p_mem", clk, [&](ProcBuilder& p) {
    p.write(mem, slice(Ex(a), 2, 0), Ex(b));
    p.assign(memOut, at(mem, slice(Ex(b), 2, 0)));
  });
  return elaborate(*mb.finish());
}

template <class P>
class CompiledTypedTest : public ::testing::Test {};
using Policies = ::testing::Types<hdt::FourState, hdt::TwoState>;
TYPED_TEST_SUITE(CompiledTypedTest, Policies);

TYPED_TEST(CompiledTypedTest, OpZooMatchesKernelOnRandomStimuli) {
  using P = TypeParam;
  Design d = opZoo();
  RtlSimulator<P> rtlSim(d, KernelConfig{1000, 0, 1000});
  TlmIpModel<P> tlmSim(d, TlmModelConfig{0, false});
  util::Prng rng(0xD15EA5E);

  for (int c = 0; c < 200; ++c) {
    const std::uint64_t a = rng.bits(16), b = rng.bits(16);
    const std::uint64_t sa = rng.bits(16), sb = rng.bits(16);
    const std::uint64_t s4 = rng.bits(2);
    rtlSim.setStimulus([&](std::uint64_t, RtlSimulator<P>& s) {
      s.setInputByName("a", a);
      s.setInputByName("b", b);
      s.setInputByName("sa", sa);
      s.setInputByName("sb", sb);
      s.setInputByName("sel4", s4);
    });
    rtlSim.runCycles(1);
    for (const auto& n : {"a", "b", "sa", "sb", "sel4"}) {
      tlmSim.setInputByName(n, n == std::string("a")      ? a
                               : n == std::string("b")    ? b
                               : n == std::string("sa")   ? sa
                               : n == std::string("sb")   ? sb
                                                          : s4);
    }
    tlmSim.scheduler();
    for (std::size_t i = 0; i < d.symbols.size(); ++i) {
      const auto id = static_cast<SymbolId>(i);
      if (d.symbols[i].isClock() || d.symbols[i].kind == SymKind::Array) continue;
      EXPECT_TRUE(rtlSim.value(id).identical(tlmSim.value(id)))
          << "cycle " << c << " symbol " << d.symbols[i].name << " rtl="
          << rtlSim.value(id).toString() << " tlm=" << tlmSim.value(id).toString();
    }
  }
}

TEST(Compiled, ConstantsArePooled) {
  Design d = opZoo();
  CompiledDesign code = compileDesign(d);
  // The pool deduplicates (width, value) pairs: far fewer constants than
  // opcodes referencing them.
  std::size_t refs = 0;
  for (const auto& p : code.procs) {
    for (const auto& op : p.ops) {
      if (op.code == OpCode::PushConst) ++refs;
    }
  }
  EXPECT_GT(refs, code.constants.size() / 2);
  EXPECT_FALSE(code.constants.empty());
}

TEST(Compiled, MaxStackIsSufficientBound) {
  Design d = opZoo();
  CompiledDesign code = compileDesign(d);
  for (const auto& p : code.procs) {
    EXPECT_GT(p.maxStack, 0);
    EXPECT_LT(p.maxStack, 64);  // sanity: op zoo is not that deep
  }
}

TEST(ScalarMachine, RejectsWideSymbols) {
  ModuleBuilder mb("wide");
  mb.clock("clk");
  auto w = mb.signal("w", 100);
  (void)w;
  Design d = elaborate(*mb.finish());
  EXPECT_THROW((TlmIpModel<hdt::FourState>(d, TlmModelConfig{0, false})),
               std::invalid_argument);
}

TEST(ScalarMachine, FourStateXPropagation) {
  // X inputs propagate pessimistically, exactly as in the kernel.
  ModuleBuilder mb("xprop");
  auto clk = mb.clock("clk");
  auto a = mb.in("a", 8);
  auto y = mb.signal("y", 8);
  auto cmp = mb.signal("cmp", 1);
  mb.onRising("p", clk, [&](ProcBuilder& p) {
    p.assign(y, Ex(a) + 1u);
    p.assign(cmp, Ex(a) == 3u);
  });
  Design d = elaborate(*mb.finish());
  TlmIpModel<hdt::FourState> m(d, TlmModelConfig{0, false});
  m.setInput(d.findSymbol("a"), hdt::LogicVector::allX(8));
  m.scheduler();
  EXPECT_TRUE(m.value(d.findSymbol("y")).anyUnknown());
  EXPECT_TRUE(m.value(d.findSymbol("cmp")).anyUnknown());
}

}  // namespace
}  // namespace xlv::abstraction
