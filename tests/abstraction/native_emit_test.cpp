// Native-codegen backend conformance at the model level: the emitted +
// system-compiled translation unit (abstraction/emit_native.h) must be a
// bit-exact replacement for TlmIpModel. Pinned properties:
//
//   * lock-step equivalence — every symbol, both planes, every cycle, for
//     both value policies, on designs exercising arrays, division-by-zero
//     unknowns, dual clocks and sensor-augmented IPs;
//   * full-state equivalence — the native xlvn_save word image equals
//     snapshotToWords(interpreter snapshot) exactly, so checkpoints are
//     interchangeable between engines;
//   * cross-engine restore — an interpreter snapshot loads into a native
//     session (and vice versa) and the tails stay identical;
//   * mutant phases — activating min/max/delta mutants produces the same
//     sensor observations on both engines;
//   * caching — a second getNativeLibrary call for the same layout is a
//     cache hit, not a recompile.
//
// Every test skips (visibly) when no system C++ compiler is present; the
// interpreter remains the reference in that configuration.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "abstraction/emit_native.h"
#include "abstraction/native_backend.h"
#include "abstraction/tlm_model.h"
#include "insertion/insertion.h"
#include "ir/builder.h"
#include "ir/elaborate.h"
#include "mutation/adam.h"
#include "sta/sta.h"

namespace xlv::abstraction {
namespace {

using namespace xlv::ir;
using insertion::InsertionConfig;
using insertion::SensorKind;
using mutation::MutantKind;

#define XLV_REQUIRE_TOOLCHAIN()                                              \
  do {                                                                       \
    if (!nativeToolchainAvailable()) {                                       \
      GTEST_SKIP() << "no system C++ compiler; native backend unavailable";  \
    }                                                                        \
  } while (0)

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

template <class P>
constexpr bool kFourState = std::is_same_v<P, hdt::FourState>;

/// Drive interpreter and native sessions with identical stimulus and demand
/// bit-exact values (both planes) for every non-clock scalar symbol, plus
/// full-state word-image equality, every cycle.
template <class P>
void expectLockStep(const TlmModelLayoutPtr& layout, int cycles, int activeMutant = -1) {
  const NativeLibraryPtr lib = getNativeLibrary(*layout, kFourState<P>);
  ASSERT_NE(nullptr, lib) << "native build failed despite available toolchain";

  TlmIpModel<P> interp(layout);
  NativeSession native(lib);
  if (activeMutant >= 0) {
    interp.activateMutant(activeMutant);
    native.activateMutant(activeMutant);
  }
  const Design& d = layout->design;
  std::vector<std::uint64_t> nativeWords, interpWords;
  for (int c = 0; c < cycles; ++c) {
    for (SymbolId in : d.inputs) {
      const std::uint64_t v = stimulus(static_cast<std::uint64_t>(c), d.symbol(in).name);
      interp.setInputUint(in, v);
      native.setInputUint(in, v);
    }
    interp.scheduler();
    native.scheduler();
    ASSERT_EQ(interp.cycle(), native.cycle());
    for (std::size_t i = 0; i < d.symbols.size(); ++i) {
      const auto id = static_cast<SymbolId>(i);
      if (d.symbols[i].kind == SymKind::Array) continue;
      const SV iv = interp.rawValue(id);
      const SV nv = native.rawValue(id);
      ASSERT_TRUE(iv.val == nv.val && iv.unk == nv.unk)
          << "cycle " << c << " symbol '" << d.symbols[i].name << "': interp=("
          << iv.val << "," << iv.unk << ") native=(" << nv.val << "," << nv.unk << ")";
      ASSERT_EQ(interp.valueUint(id), native.valueUint(id));
    }
    // The strongest check: the two engines' serialized state — values,
    // arrays, dirty flags, cycle counter — is the same word image.
    nativeWords.clear();
    native.saveWords(nativeWords);
    interpWords.clear();
    snapshotToWords(*layout, interp.snapshot(), interpWords);
    ASSERT_EQ(interpWords, nativeWords) << "state image diverged at cycle " << c;
  }
}

template <class P>
class NativeEmitTypedTest : public ::testing::Test {};
using Policies = ::testing::Types<hdt::FourState, hdt::TwoState>;
TYPED_TEST_SUITE(NativeEmitTypedTest, Policies);

TYPED_TEST(NativeEmitTypedTest, StressDesignLockStep) {
  XLV_REQUIRE_TOOLCHAIN();
  expectLockStep<TypeParam>(buildTlmModelLayout(stressDesign(), TlmModelConfig{0, false}),
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
  expectLockStep<TypeParam>(layout, 20, -1);
  expectLockStep<TypeParam>(layout, 20, 0);
  expectLockStep<TypeParam>(layout, 20, 1);
}

TYPED_TEST(NativeEmitTypedTest, CounterAugmentedDualClockDeltaMutantLockStep) {
  XLV_REQUIRE_TOOLCHAIN();
  AugmentedFixture fx(SensorKind::Counter);
  auto injected =
      mutation::injectMutants(fx.design, {{"r", MutantKind::DeltaDelay, 3}});
  const auto layout =
      buildTlmModelLayout(injected.design, TlmModelConfig{10, false}, injected.mutants);
  expectLockStep<TypeParam>(layout, 12, -1);
  expectLockStep<TypeParam>(layout, 12, 0);
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

// An interpreter checkpoint loads into a native session (and the reverse)
// and the continued runs stay bit-identical — the property the campaign's
// shared checkpoint recordings rely on.
TYPED_TEST(NativeEmitTypedTest, CrossEngineSnapshotHandoff) {
  using P = TypeParam;
  XLV_REQUIRE_TOOLCHAIN();
  const Design d = stressDesign();
  const auto layout = buildTlmModelLayout(d, TlmModelConfig{0, false});
  const NativeLibraryPtr lib = getNativeLibrary(*layout, kFourState<P>);
  ASSERT_NE(nullptr, lib);
  ASSERT_EQ(nativeStateWords(*layout), lib->stateWords);

  auto drive = [&](auto& session, std::uint64_t c) {
    for (SymbolId in : d.inputs) {
      session.setInputUint(in, stimulus(c, d.symbol(in).name));
    }
    session.scheduler();
  };

  // Interpreter runs 9 cycles; its snapshot seeds a native session.
  TlmIpModel<P> interp(layout);
  for (std::uint64_t c = 0; c < 9; ++c) drive(interp, c);
  std::vector<std::uint64_t> words;
  snapshotToWords(*layout, interp.snapshot(), words);
  NativeSession native(lib);
  native.loadWords(words);
  EXPECT_EQ(interp.cycle(), native.cycle());

  // Both continue; every symbol matches every cycle.
  for (std::uint64_t c = 9; c < 25; ++c) {
    drive(interp, c);
    drive(native, c);
    for (std::size_t i = 0; i < d.symbols.size(); ++i) {
      const auto id = static_cast<SymbolId>(i);
      if (d.symbols[i].kind == SymKind::Array) continue;
      const SV iv = interp.rawValue(id);
      const SV nv = native.rawValue(id);
      ASSERT_TRUE(iv.val == nv.val && iv.unk == nv.unk)
          << "cycle " << c << " symbol '" << d.symbols[i].name << "'";
    }
  }

  // Reverse handoff: native words restore a fresh interpreter session.
  words.clear();
  native.saveWords(words);
  TlmIpModel<P> resumed(layout);
  resumed.restore(wordsToSnapshot(*layout, words));
  EXPECT_EQ(native.cycle(), resumed.cycle());
  drive(resumed, 25);
  drive(native, 25);
  const SymbolId y = d.findSymbol("y");
  EXPECT_EQ(native.valueUint(y), resumed.valueUint(y));
}

TEST(NativeEmit, WordCodecRejectsShapeMismatch) {
  const Design d = stressDesign();
  const auto layout = buildTlmModelLayout(d, TlmModelConfig{0, false});
  std::vector<std::uint64_t> words(nativeStateWords(*layout) + 1, 0);
  EXPECT_THROW(wordsToSnapshot(*layout, words), std::invalid_argument);
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

}  // namespace
}  // namespace xlv::abstraction
