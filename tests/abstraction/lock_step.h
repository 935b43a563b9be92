// Interpreter ≡ native lock-step check shared by the native emitter suites
// (native_emit_test.cpp, native_random_test.cpp).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

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
///
/// With `handoffAt` >= 0, the engines swap state before that cycle, at the
/// transaction boundary where a campaign checkpoint is taken: a fresh native
/// session loads the interpreter's words and a fresh interpreter loads the
/// native session's, each with the same mutant active, and from then on all
/// four sessions run in lock-step with equal word images. (A fresh session
/// starts with every sweep slot dirty, so a load that kept those flags would
/// miss the next input change's sweep and diverge here.)
template <class P>
void expectLockStep(const TlmModelLayoutPtr& layout, int cycles, int activeMutant,
                    const LockStepStimulus& stimulus, int handoffAt = -1) {
  const NativeLibraryPtr lib = getNativeLibrary(*layout, kFourState<P>);
  ASSERT_NE(nullptr, lib) << "native build failed despite available toolchain";

  TlmIpModel<P> interp(layout);
  NativeSession native(lib);
  std::unique_ptr<NativeSession> nativeFromInterp;
  std::unique_ptr<TlmIpModel<P>> interpFromNative;
  const auto activate = [activeMutant](auto& s) {
    if (activeMutant >= 0) s.activateMutant(activeMutant);
  };
  const auto each = [&](const auto& fn) {
    fn(interp);
    fn(native);
    if (nativeFromInterp != nullptr) {
      fn(*nativeFromInterp);
      fn(*interpFromNative);
    }
  };
  activate(interp);
  activate(native);
  const ir::Design& d = layout->design;
  std::vector<std::uint64_t> nativeWords, interpWords, words;
  for (int c = 0; c < cycles; ++c) {
    if (c == handoffAt) {
      interpWords.clear();
      interp.saveWords(interpWords);
      nativeWords.clear();
      native.saveWords(nativeWords);
      nativeFromInterp = std::make_unique<NativeSession>(lib);
      interpFromNative = std::make_unique<TlmIpModel<P>>(layout);
      activate(*nativeFromInterp);
      activate(*interpFromNative);
      nativeFromInterp->loadWords(interpWords);
      interpFromNative->loadWords(nativeWords);
    }
    each([&](auto& s) {
      for (ir::SymbolId in : d.inputs) {
        s.setInputUint(in, stimulus(static_cast<std::uint64_t>(c), in));
      }
      s.scheduler();
    });
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
    // The strongest check: the engines' saved state — values, arrays,
    // dirty flags, cycle counter — is the same word image.
    nativeWords.clear();
    native.saveWords(nativeWords);
    interpWords.clear();
    interp.saveWords(interpWords);
    ASSERT_EQ(interpWords, nativeWords) << "state image diverged at cycle " << c;
    if (nativeFromInterp != nullptr) {
      words.clear();
      nativeFromInterp->saveWords(words);
      ASSERT_EQ(interpWords, words) << "native session resumed from interpreter words "
                                       "diverged at cycle " << c;
      words.clear();
      interpFromNative->saveWords(words);
      ASSERT_EQ(interpWords, words) << "interpreter resumed from native words "
                                       "diverged at cycle " << c;
    }
  }
}

}  // namespace xlv::abstraction
