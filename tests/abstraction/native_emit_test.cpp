// Native-codegen backend conformance at the model level: the emitted +
// system-compiled translation unit (abstraction/emit_native.h) must be a
// bit-exact replacement for TlmIpModel. Pinned properties:
//
//   * lock-step equivalence — every symbol, both planes, every cycle, for
//     both value policies, on designs exercising arrays, division-by-zero
//     unknowns, dual clocks and sensor-augmented IPs;
//   * full-state equivalence — the native session's saved word image equals
//     the interpreter's exactly, so checkpoints are interchangeable between
//     engines;
//   * cross-engine restore — an interpreter's words load into a native
//     session (and vice versa) and the tails stay identical;
//   * mutant phases — activating min/max/delta mutants produces the same
//     sensor observations on both engines;
//   * caching — a second getNativeLibrary call for the same layout is a
//     cache hit, not a recompile;
//   * body sharing — each distinct process body is emitted once (the case
//     studies' replicated sensor monitors share theirs), and instances that
//     differ in a width or an array size never share one.
//
// Every test skips (visibly) when no system C++ compiler is present; the
// interpreter remains the reference in that configuration.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "abstraction/emit_native.h"
#include "abstraction/native_backend.h"
#include "abstraction/tlm_model.h"
#include "core/flow.h"
#include "insertion/insertion.h"
#include "ir/builder.h"
#include "ir/elaborate.h"
#include "ips/case_study.h"
#include "lock_step.h"
#include "mutation/adam.h"
#include "sta/sta.h"

namespace xlv::abstraction {
namespace {

using namespace xlv::ir;
using insertion::InsertionConfig;
using insertion::SensorKind;
using mutation::MutantKind;

/// Arrays, a divide-by-zero path (live unknown plane in 4-state), shifts and
/// comparisons — a cross-section of the opcode set.
Design stressDesign() {
  ModuleBuilder mb("stress");
  auto clk = mb.clock("clk");
  auto en = mb.in("en", 1);
  auto d = mb.in("d", 8);
  auto acc = mb.signal("acc", 16);
  auto idx = mb.signal("idx", 3);
  auto regs = mb.array("regs", 16, 8);
  auto rom = mb.array("rom", 8, 4);
  mb.initArray(rom, {0x11, 0x22, 0x33, 0x44});
  auto quot = mb.signal("quot", 8);
  auto cmp = mb.signal("cmp", 1);
  auto y = mb.out("y", 16);

  mb.onRising("accumulate", clk, [&](ProcBuilder& p) {
    p.if_(Ex(en) == 1u, [&] {
      p.assign(acc, Ex(acc) + zext(Ex(d), 16));
      p.write(regs, Ex(idx), Ex(acc));
      p.assign(idx, Ex(idx) + 1u);
    });
  });
  mb.comb("divide", [&](ProcBuilder& p) { p.assign(quot, Ex(d) / (Ex(d) & lit(8, 7))); });
  mb.comb("compare", [&](ProcBuilder& p) { p.assign(cmp, Ex(acc) > zext(Ex(d), 16)); });
  mb.comb("output", [&](ProcBuilder& p) {
    p.assign(y, Ex(acc) ^ zext(at(regs, Ex(idx)), 16) ^ zext(Ex(quot), 16) ^
                    zext(at(rom, Ex(idx) & lit(3, 3)), 16) ^ zext(Ex(cmp), 16));
  });
  return elaborate(*mb.finish());
}

std::uint64_t stimulus(std::uint64_t c, const std::string& name) {
  if (name == "en") return (c % 3) != 0 ? 1 : 0;
  if (name == "recovery_en") return 1;
  return (c * 37 + 11) & 0xff;
}

/// Lock-step with the name-keyed stimulus above; `handoffAt` as in
/// expectLockStep.
template <class P>
void lockStepByName(const TlmModelLayoutPtr& layout, int cycles, int activeMutant = -1,
                    int handoffAt = -1) {
  const Design& d = layout->design;
  expectLockStep<P>(
      layout, cycles, activeMutant,
      [&](std::uint64_t c, SymbolId in) { return stimulus(c, d.symbol(in).name); }, handoffAt);
}

template <class P>
class NativeEmitTypedTest : public ::testing::Test {};
using Policies = ::testing::Types<hdt::FourState, hdt::TwoState>;
TYPED_TEST_SUITE(NativeEmitTypedTest, Policies);

TYPED_TEST(NativeEmitTypedTest, StressDesignLockStep) {
  XLV_REQUIRE_TOOLCHAIN();
  lockStepByName<TypeParam>(buildTlmModelLayout(stressDesign(), TlmModelConfig{0, false}),
                            40);
}

struct AugmentedFixture {
  Design design;
  std::vector<insertion::InsertedSensor> sensors;

  explicit AugmentedFixture(SensorKind kind) {
    ModuleBuilder mb("dut");
    auto clk = mb.clock("clk");
    auto din = mb.in("din", 8);
    auto dout = mb.out("dout", 8);
    auto r = mb.signal("r", 8);
    auto r2 = mb.signal("r2", 8);
    mb.onRising("ff", clk, [&](ProcBuilder& p) {
      p.assign(r, Ex(din) ^ Ex(r));
      p.assign(r2, Ex(r) * Ex(din));
    });
    mb.comb("drive", [&](ProcBuilder& p) { p.assign(dout, Ex(r) ^ Ex(r2)); });
    auto ip = mb.finish();

    sta::StaConfig staCfg;
    staCfg.clockPeriodPs = 1200;
    staCfg.thresholdFraction = 1.0;
    auto report = sta::analyze(elaborate(*ip), staCfg);
    InsertionConfig icfg;
    icfg.kind = kind;
    auto ins = insertSensors(*ip, report, icfg);
    design = elaborate(*ins.augmented);
    sensors = ins.sensors;
  }
};

TYPED_TEST(NativeEmitTypedTest, RazorAugmentedWithMutantsLockStep) {
  XLV_REQUIRE_TOOLCHAIN();
  AugmentedFixture fx(SensorKind::Razor);
  auto injected = mutation::injectMutants(
      fx.design, {{"r", MutantKind::MinDelay, 0}, {"r", MutantKind::MaxDelay, 0}});
  const auto layout =
      buildTlmModelLayout(injected.design, TlmModelConfig{0, false}, injected.mutants);
  lockStepByName<TypeParam>(layout, 20, -1);
  lockStepByName<TypeParam>(layout, 20, 0);
  lockStepByName<TypeParam>(layout, 20, 1);
}

TYPED_TEST(NativeEmitTypedTest, CounterAugmentedDualClockDeltaMutantLockStep) {
  XLV_REQUIRE_TOOLCHAIN();
  AugmentedFixture fx(SensorKind::Counter);
  auto injected =
      mutation::injectMutants(fx.design, {{"r", MutantKind::DeltaDelay, 3}});
  const auto layout =
      buildTlmModelLayout(injected.design, TlmModelConfig{10, false}, injected.mutants);
  lockStepByName<TypeParam>(layout, 12, -1);
  lockStepByName<TypeParam>(layout, 12, 0);
}

// xlvn_set_mutant with an id outside the mutant set selects no mutant: the
// session runs exactly like one that never activated any.
TEST(NativeEmit, OutOfRangeMutantIdSelectsNoMutant) {
  XLV_REQUIRE_TOOLCHAIN();
  AugmentedFixture fx(SensorKind::Razor);
  auto injected = mutation::injectMutants(
      fx.design, {{"r", MutantKind::MinDelay, 0}, {"r", MutantKind::MaxDelay, 0}});
  const auto layout =
      buildTlmModelLayout(injected.design, TlmModelConfig{0, false}, injected.mutants);
  const NativeLibraryPtr lib = getNativeLibrary(*layout, true);
  ASSERT_NE(nullptr, lib);

  NativeSession clean(lib);
  NativeSession high(lib);
  NativeSession low(lib);
  high.activateMutant(1 << 20);
  low.activateMutant(-7);
  const Design& d = layout->design;
  std::vector<std::uint64_t> want, got;
  for (std::uint64_t c = 0; c < 20; ++c) {
    for (NativeSession* s : {&clean, &high, &low}) {
      for (SymbolId in : d.inputs) s->setInputUint(in, stimulus(c, d.symbol(in).name));
      s->scheduler();
    }
    want.clear();
    clean.saveWords(want);
    for (NativeSession* s : {&high, &low}) {
      got.clear();
      s->saveWords(got);
      ASSERT_EQ(want, got) << "cycle " << c;
    }
  }
}

// An interpreter's words load into a fresh native session and the native
// session's into a fresh interpreter, and all four sessions stay
// bit-identical to the end — the property the campaign's shared checkpoint
// recordings rely on.
TYPED_TEST(NativeEmitTypedTest, CrossEngineSnapshotHandoff) {
  XLV_REQUIRE_TOOLCHAIN();
  const auto layout = buildTlmModelLayout(stressDesign(), TlmModelConfig{0, false});
  const NativeLibraryPtr lib = getNativeLibrary(*layout, kFourState<TypeParam>);
  ASSERT_NE(nullptr, lib);
  ASSERT_EQ(nativeStateWords(*layout), lib->stateWords);
  lockStepByName<TypeParam>(layout, 25, -1, 9);
}

TEST(NativeEmit, WordCodecRejectsShapeMismatch) {
  const Design d = stressDesign();
  const auto layout = buildTlmModelLayout(d, TlmModelConfig{0, false});
  std::vector<std::uint64_t> words(nativeStateWords(*layout) + 1, 0);
  TlmIpModel<hdt::FourState> fourState(layout);
  TlmIpModel<hdt::TwoState> twoState(layout);
  EXPECT_THROW(fourState.loadWords(words), std::invalid_argument);
  EXPECT_THROW(twoState.loadWords(words), std::invalid_argument);
}

TEST(NativeEmit, SecondLookupIsACacheHit) {
  XLV_REQUIRE_TOOLCHAIN();
  const auto layout = buildTlmModelLayout(stressDesign(), TlmModelConfig{0, false});
  clearNativeLibraryCache();
  NativeUseStats first, second;
  const NativeLibraryPtr a = getNativeLibrary(*layout, true, &first);
  const NativeLibraryPtr b = getNativeLibrary(*layout, true, &second);
  ASSERT_NE(nullptr, a);
  EXPECT_EQ(a.get(), b.get());
  // First call compiled (or pulled the .so from a warm artifact store);
  // the second must be served from the in-process cache.
  EXPECT_EQ(1, first.compiles + first.cacheHits);
  EXPECT_EQ(0, second.compiles);
  EXPECT_EQ(1, second.cacheHits);
}

TEST(NativeEmit, EmittedSourceIsDeterministic) {
  const auto layout = buildTlmModelLayout(stressDesign(), TlmModelConfig{0, false});
  EXPECT_EQ(emitNativeCpp(*layout, true, "id"), emitNativeCpp(*layout, true, "id"));
  EXPECT_NE(emitNativeCpp(*layout, true, "id"), emitNativeCpp(*layout, false, "id"));
}

// --- body sharing -------------------------------------------------------------

/// The body function each process runs, in process order, read from the
/// emitted dispatch table.
std::vector<std::string> bodyOfProc(const std::string& src) {
  std::vector<std::string> out;
  const std::size_t table = src.find("static const Proc kProc[");
  const std::size_t end = src.find(";\n", table);
  for (std::size_t pos = src.find("{body_", table); pos < end;
       pos = src.find("{body_", pos + 1)) {
    out.push_back(src.substr(pos + 1, src.find(',', pos) - pos - 1));
  }
  return out;
}

/// The statements of every body function the source defines, without the
/// signature and without a single-process body's own operand table.
std::vector<std::string> bodyTexts(const std::string& src) {
  const std::string ownTable = "  static constexpr int ";
  std::vector<std::string> out;
  for (std::size_t pos = src.find("\nstatic void body_"); pos != std::string::npos;
       pos = src.find("\nstatic void body_", pos + 1)) {
    std::size_t begin = src.find('\n', pos + 1) + 1;
    if (src.compare(begin, ownTable.size(), ownTable) == 0) {
      begin = src.find('\n', begin) + 1;
    }
    out.push_back(src.substr(begin, src.find("\n}\n", begin) - begin));
  }
  return out;
}

/// The injected layout a flow builds for `cs` with `kind` sensors.
TlmModelLayoutPtr caseStudyLayout(const ips::CaseStudy& cs, SensorKind kind) {
  core::FlowOptions opts;
  opts.sensorKind = kind;
  core::FlowReport r;
  core::stageElaborate(cs, opts, r);
  core::stageInsertion(cs, opts, r);
  core::stageInjection(cs, opts, r);
  return buildTlmModelLayout(r.injected.design, TlmModelConfig{r.hfRatio, false},
                             r.injected.mutants);
}

// Every case study emits each distinct process body once: no two body
// functions have the same statements, every process has one dispatch
// entry, and the replicated sensor monitors share their bodies.
TEST(NativeEmit, CaseStudiesEmitEachDistinctBodyOnce) {
  const struct {
    ips::CaseStudy cs;
    SensorKind kind;
    std::size_t procs, bodies;
  } cases[] = {
      {ips::buildPlasmaCase(), SensorKind::Razor, 81, 30},
      {ips::buildPlasmaCase(), SensorKind::Counter, 107, 32},
      {ips::buildFilterCase(), SensorKind::Razor, 44, 13},
      {ips::buildFilterCase(), SensorKind::Counter, 60, 15},
      {ips::buildDspCase(), SensorKind::Razor, 70, 14},
      {ips::buildDspCase(), SensorKind::Counter, 98, 16},
      {ips::buildHandshakeCase(), SensorKind::Razor, 11, 7},
      {ips::buildHandshakeCase(), SensorKind::Counter, 14, 9},
  };
  for (const auto& c : cases) {
    const std::string what = c.cs.name + "/" + insertion::sensorKindName(c.kind);
    const auto layout = caseStudyLayout(c.cs, c.kind);
    std::size_t bodies = 0;
    const std::string src = emitNativeCpp(*layout, true, "", &bodies);
    const std::vector<std::string> texts = bodyTexts(src);
    EXPECT_EQ(c.procs, layout->code.procs.size()) << what;
    EXPECT_EQ(c.procs, bodyOfProc(src).size()) << what;
    EXPECT_EQ(c.bodies, bodies) << what;
    EXPECT_EQ(bodies, texts.size()) << what;
    EXPECT_EQ(texts.size(), std::set<std::string>(texts.begin(), texts.end()).size())
        << what << ": two body functions have the same statements";
    if (c.cs.name == "Plasma" && c.kind == SensorKind::Counter) {
      EXPECT_LE(src.size(), 110'000u) << what;
    }
  }
}

/// A cell whose two processes both depend on its width; only `read`
/// depends on the array size, and `seq` reads the constant `k`.
std::shared_ptr<const Module> variantCell(int width, int arraySize, std::uint64_t k) {
  ModuleBuilder mb("cell");
  auto clk = mb.clock("clk");
  auto a = mb.in("a", width);
  auto q = mb.out("q", width);
  auto r = mb.signal("r", width);
  auto mem = mb.array("mem", width, arraySize);
  mb.onRising("seq", clk, [&](ProcBuilder& p) {
    p.assign(r, Ex(r) + Ex(a) + lit(width, k));
    p.write(mem, Ex(r), Ex(a));
  });
  mb.comb("read", [&](ProcBuilder& p) { p.assign(q, (at(mem, Ex(a)) ^ Ex(r)) + 1u); });
  return mb.finish();
}

/// Five instances of one cell: u0 and u1 identical, u2 wider, u3 with a
/// larger array and u4 with another constant.
Design variantDesign() {
  const auto base = variantCell(8, 4, 3);
  const std::shared_ptr<const Module> cells[] = {base, base, variantCell(16, 4, 3),
                                                 variantCell(8, 6, 3), variantCell(8, 4, 5)};
  ModuleBuilder mb("variants");
  auto clk = mb.clock("clk");
  auto x = mb.in("x", 16);
  auto y = mb.out("y", 16);
  std::vector<Sig> ins, outs;
  for (std::size_t i = 0; i < std::size(cells); ++i) {
    const int w = cells[i]->symbol(cells[i]->findSymbol("a")).type.width;
    ins.push_back(mb.signal("in" + std::to_string(i), w));
    outs.push_back(mb.signal("q" + std::to_string(i), w));
    mb.instance("u" + std::to_string(i), cells[i],
                {{"clk", clk}, {"a", ins.back()}, {"q", outs.back()}});
  }
  mb.comb("drive", [&](ProcBuilder& p) {
    for (std::size_t i = 0; i < ins.size(); ++i) {
      p.assign(ins[i], fit(Ex(x) + lit(16, i), ins[i].type.width));
    }
  });
  mb.comb("collect", [&](ProcBuilder& p) {
    Ex acc = zext(Ex(outs[0]), 16);
    for (std::size_t i = 1; i < outs.size(); ++i) acc = acc ^ zext(Ex(outs[i]), 16);
    p.assign(y, acc);
  });
  return elaborate(*mb.finish());
}

// Instances that differ in a width or an array size get bodies of their
// own; instances that differ only in a constant share a body and read the
// constant through their operand table. Every variant runs in lock-step.
TYPED_TEST(NativeEmitTypedTest, InstanceVariantsShareOnlyIdenticalBodies) {
  const auto layout = buildTlmModelLayout(variantDesign(), TlmModelConfig{0, false});
  const std::string src = emitNativeCpp(*layout, kFourState<TypeParam>, "");
  const std::vector<std::string> bodyOf = bodyOfProc(src);
  ASSERT_EQ(layout->design.processes.size(), bodyOf.size());
  const auto body = [&](const std::string& proc) {
    for (std::size_t i = 0; i < bodyOf.size(); ++i) {
      if (layout->design.processes[i].name == proc) return bodyOf[i];
    }
    ADD_FAILURE() << "no process " << proc;
    return std::string();
  };
  for (const char* proc : {"seq", "read"}) {
    const std::string p = proc;
    EXPECT_EQ(body("u0." + p), body("u1." + p)) << p << ": identical instances";
    EXPECT_EQ(body("u0." + p), body("u4." + p)) << p << ": another constant";
    EXPECT_NE(body("u0." + p), body("u2." + p)) << p << ": another width";
  }
  EXPECT_EQ(body("u0.seq"), body("u3.seq")) << "the array writer does not read the size";
  EXPECT_NE(body("u0.read"), body("u3.read")) << "the array reader does";

  XLV_REQUIRE_TOOLCHAIN();
  lockStepByName<TypeParam>(layout, 24);
}

}  // namespace
}  // namespace xlv::abstraction
