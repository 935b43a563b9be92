// Interpreter ≡ native lock-step check shared by the native emitter suites
// (native_emit_test.cpp, native_random_test.cpp).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "abstraction/emit_native.h"
#include "abstraction/native_backend.h"
#include "abstraction/tlm_model.h"

/// Skip (visibly) when no system C++ compiler is present; the interpreter
/// remains the reference in that configuration.
#define XLV_REQUIRE_TOOLCHAIN()                                                \
  do {                                                                         \
    if (!::xlv::abstraction::nativeToolchainAvailable()) {                     \
      GTEST_SKIP() << "no system C++ compiler; native backend unavailable";    \
    }                                                                          \
  } while (0)

namespace xlv::abstraction {

template <class P>
constexpr bool kFourState = std::is_same_v<P, hdt::FourState>;

/// The value driven onto input `sym` at cycle `c`.
using LockStepStimulus = std::function<std::uint64_t(std::uint64_t c, ir::SymbolId sym)>;

/// Drive interpreter and native sessions with identical stimulus and demand
/// bit-exact values (both planes) for every non-clock scalar symbol, plus
/// full-state word-image equality, every cycle.
template <class P>
void expectLockStep(const TlmModelLayoutPtr& layout, int cycles, int activeMutant,
                    const LockStepStimulus& stimulus) {
  const NativeLibraryPtr lib = getNativeLibrary(*layout, kFourState<P>);
  ASSERT_NE(nullptr, lib) << "native build failed despite available toolchain";

  TlmIpModel<P> interp(layout);
  NativeSession native(lib);
  if (activeMutant >= 0) {
    interp.activateMutant(activeMutant);
    native.activateMutant(activeMutant);
  }
  const ir::Design& d = layout->design;
  std::vector<std::uint64_t> nativeWords, interpWords;
  for (int c = 0; c < cycles; ++c) {
    for (ir::SymbolId in : d.inputs) {
      const std::uint64_t v = stimulus(static_cast<std::uint64_t>(c), in);
      interp.setInputUint(in, v);
      native.setInputUint(in, v);
    }
    interp.scheduler();
    native.scheduler();
    ASSERT_EQ(interp.cycle(), native.cycle());
    for (std::size_t i = 0; i < d.symbols.size(); ++i) {
      const auto id = static_cast<ir::SymbolId>(i);
      if (d.symbols[i].kind == ir::SymKind::Array) continue;
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

}  // namespace xlv::abstraction
