// saveWords()/loadWords() round trips: the one state format behind the
// campaign's golden fast-forward and its checkpoint store
// (analysis/mutation_analysis.h). Pinned properties, on the interpreter and
// — when a system C++ compiler is present — on the native engine:
//
//   * mid-simulation restore equivalence — loading a cycle-k word image
//     into a FRESH session and replaying cycles k..n is bit-identical,
//     symbol for symbol (both planes) and cycle for cycle, to the
//     straight-line run;
//   * both value policies (2-state and 4-state, including a live unknown
//     plane produced by a division by zero);
//   * array state (a register-file write pattern) is part of the image;
//   * saveWords appends exactly nativeStateWords(layout) words, and an
//     image of any other length is rejected before anything is loaded.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "abstraction/native_backend.h"
#include "abstraction/tlm_model.h"
#include "ir/builder.h"
#include "ir/elaborate.h"
#include "lock_step.h"

namespace xlv::abstraction {
namespace {

using namespace xlv::ir;

constexpr std::size_t kRegs = 8;

/// Counter/accumulator design with a register file and a division (the
/// divide-by-zero path turns the 4-state unknown plane on, so the image
/// must carry both planes to round-trip).
Design snapshotDesign() {
  ModuleBuilder mb("snap");
  auto clk = mb.clock("clk");
  auto en = mb.in("en", 1);
  auto d = mb.in("d", 8);
  auto acc = mb.signal("acc", 16);
  auto idx = mb.signal("idx", 3);
  auto regs = mb.array("regs", 16, static_cast<int>(kRegs));
  auto quot = mb.signal("quot", 8);
  auto y = mb.out("y", 16);

  mb.onRising("accumulate", clk, [&](ProcBuilder& p) {
    p.if_(Ex(en) == 1u, [&] {
      p.assign(acc, Ex(acc) + zext(Ex(d), 16));
      p.write(regs, Ex(idx), Ex(acc));
      p.assign(idx, Ex(idx) + 1u);
    });
  });
  // d / (d & 7): divides by zero whenever the low bits of d are zero —
  // 4-state yields all-X, 2-state scrubs to 0.
  mb.comb("divide", [&](ProcBuilder& p) { p.assign(quot, Ex(d) / (Ex(d) & lit(8, 7))); });
  mb.comb("output", [&](ProcBuilder& p) {
    p.assign(y, Ex(acc) ^ zext(at(regs, Ex(idx)), 16) ^ zext(Ex(quot), 16));
  });
  return elaborate(*mb.finish());
}

TlmModelLayoutPtr snapshotLayout() {
  return buildTlmModelLayout(snapshotDesign(), TlmModelConfig{0, false});
}

/// One cycle: drive every input, then one transaction.
template <class M>
void drive(M& m, const Design& d, std::uint64_t c) {
  for (SymbolId in : d.inputs) {
    m.setInputUint(in, d.symbol(in).name == "en" ? ((c % 3) != 0 ? 1 : 0)
                                                  : ((c * 37 + 11) & 0xff));
  }
  m.scheduler();
}

/// Both planes of every scalar symbol, read through rawValue rather than
/// the word image.
template <class M>
std::vector<std::uint64_t> planes(const M& m, const Design& d) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < d.symbols.size(); ++i) {
    if (d.symbols[i].kind == SymKind::Array) continue;
    const SV v = m.rawValue(static_cast<SymbolId>(i));
    out.push_back(v.val);
    out.push_back(v.unk);
  }
  return out;
}

/// Runs `check(makeSession)` on the interpreter and, when a system C++
/// compiler is present, on the native engine; `makeSession()` returns a
/// fresh session over `layout`.
template <class P, class Check>
void forEachEngine(const TlmModelLayoutPtr& layout, const Check& check) {
  {
    SCOPED_TRACE("interpreter");
    check([&] { return std::make_unique<TlmIpModel<P>>(layout); });
  }
  if (::testing::Test::HasFatalFailure() || !nativeToolchainAvailable()) return;
  const NativeLibraryPtr lib = getNativeLibrary(*layout, kFourState<P>);
  ASSERT_NE(nullptr, lib) << "native build failed despite available toolchain";
  SCOPED_TRACE("native");
  check([&] { return std::make_unique<NativeSession>(lib); });
}

template <class P>
class SnapshotTypedTest : public ::testing::Test {};
using Policies = ::testing::Types<hdt::FourState, hdt::TwoState>;
TYPED_TEST_SUITE(SnapshotTypedTest, Policies);

TYPED_TEST(SnapshotTypedTest, MidSimulationRestoreEquality) {
  const TlmModelLayoutPtr layout = snapshotLayout();
  const Design& d = layout->design;
  constexpr std::uint64_t kSnapAt = 7, kTotal = 25;
  forEachEngine<TypeParam>(layout, [&](const auto& makeSession) {
    // Straight-line run: the image at the cycle-kSnapAt boundary, then the
    // planes and the image after every later cycle.
    auto straight = makeSession();
    std::vector<std::uint64_t> words;
    std::vector<std::vector<std::uint64_t>> tailPlanes, tailWords;
    for (std::uint64_t c = 0; c < kTotal; ++c) {
      if (c == kSnapAt) straight->saveWords(words);
      drive(*straight, d, c);
      if (c >= kSnapAt) {
        tailPlanes.push_back(planes(*straight, d));
        straight->saveWords(tailWords.emplace_back());
      }
    }

    // A fresh session loads the image and replays the tail.
    auto resumed = makeSession();
    resumed->loadWords(words);
    EXPECT_EQ(kSnapAt, resumed->cycle());
    std::vector<std::uint64_t> got;
    for (std::uint64_t c = kSnapAt; c < kTotal; ++c) {
      drive(*resumed, d, c);
      EXPECT_EQ(tailPlanes[c - kSnapAt], planes(*resumed, d)) << "cycle " << c;
      got.clear();
      resumed->saveWords(got);
      EXPECT_EQ(tailWords[c - kSnapAt], got) << "cycle " << c;
    }
  });
}

TYPED_TEST(SnapshotTypedTest, ArrayStateRoundTrips) {
  const TlmModelLayoutPtr layout = snapshotLayout();
  const Design& d = layout->design;
  const SymbolId y = d.findSymbol("y");
  forEachEngine<TypeParam>(layout, [&](const auto& makeSession) {
    auto m = makeSession();
    for (std::uint64_t c = 0; c < 12; ++c) drive(*m, d, c);
    std::vector<std::uint64_t> words;
    m->saveWords(words);
    // The register file is the design's only array: the image's tail.
    ASSERT_NE(std::vector<std::uint64_t>(2 * kRegs, 0),
              std::vector<std::uint64_t>(words.end() - 2 * kRegs, words.end()))
        << "test design no longer writes its register file";

    auto fresh = makeSession();
    fresh->loadWords(words);
    std::vector<std::uint64_t> back;
    fresh->saveWords(back);
    EXPECT_EQ(words, back);
    // y reads regs[idx], and idx walks the whole file in 12 cycles: the
    // loaded register file drives the same outputs.
    for (std::uint64_t c = 12; c < 24; ++c) {
      drive(*m, d, c);
      drive(*fresh, d, c);
      EXPECT_EQ(m->valueUint(y), fresh->valueUint(y)) << "cycle " << c;
    }
  });
}

TYPED_TEST(SnapshotTypedTest, UnknownPlaneIsCapturedWhenFourState) {
  const TlmModelLayoutPtr layout = snapshotLayout();
  const Design& d = layout->design;
  const SymbolId quot = d.findSymbol("quot");
  forEachEngine<TypeParam>(layout, [&](const auto& makeSession) {
    auto m = makeSession();
    // d = 8 -> low bits 0 -> division by zero -> X quotient in 4-state.
    m->setInputUint(d.findSymbol("en"), 1);
    m->setInputUint(d.findSymbol("d"), 8);
    m->scheduler();
    const SV raw = m->rawValue(quot);
    if (kFourState<TypeParam>) {
      ASSERT_NE(0u, raw.unk) << "test design no longer produces an unknown plane";
    }
    std::vector<std::uint64_t> words;
    m->saveWords(words);
    auto fresh = makeSession();
    fresh->loadWords(words);
    EXPECT_EQ(raw.val, fresh->rawValue(quot).val);
    EXPECT_EQ(raw.unk, fresh->rawValue(quot).unk);
  });
}

TYPED_TEST(SnapshotTypedTest, ShapeMismatchIsRejected) {
  const TlmModelLayoutPtr layout = snapshotLayout();
  const Design& d = layout->design;
  const std::size_t n = nativeStateWords(*layout);
  forEachEngine<TypeParam>(layout, [&](const auto& makeSession) {
    auto m = makeSession();
    for (std::uint64_t c = 0; c < 5; ++c) drive(*m, d, c);
    // saveWords appends exactly the layout's word count.
    std::vector<std::uint64_t> before{42};
    m->saveWords(before);
    ASSERT_EQ(1 + n, before.size());
    EXPECT_EQ(42u, before.front());
    before.erase(before.begin());

    // Images one word short, one word long and empty are rejected before
    // anything is loaded: had any word landed, the state would differ.
    for (const std::size_t size : {n - 1, n + 1, std::size_t{0}}) {
      const std::vector<std::uint64_t> bad(size, 0x5a5a5a5a5a5a5a5aull);
      EXPECT_THROW(m->loadWords(bad), std::invalid_argument) << size << " words";
    }
    std::vector<std::uint64_t> after;
    m->saveWords(after);
    EXPECT_EQ(before, after);
  });
}

}  // namespace
}  // namespace xlv::abstraction
