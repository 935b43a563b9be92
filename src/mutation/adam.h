// ADAM — Automatic Delay Analysis and Mutation (paper Section 6 / Fig. 9).
//
// Delays do not exist at TLM, so they are modeled as mutants: code
// modifications that postpone one signal's update to a chosen point of the
// TLM scheduler. ADAM performs the injection exactly as the paper's
// Fig. 9(g)(h): each assignment `sig <= expr` in the driving synchronous
// process is rewritten to `tmp := expr` (an immediate variable write), and
// the actual signal update `sig <= tmp` is applied by the scheduler at the
// phase selected by the mutant class:
//
//   * MinDelay  — first delta cycle after the rising edge (Fig. 9b);
//   * MaxDelay  — just before the falling edge of the clock (Fig. 9c);
//   * DeltaDelay(n) — after n high-frequency clock periods (Fig. 9d),
//     requires the design to have a high-frequency clock.
//
// While a mutant is inactive, its target's update is applied at the normal
// edge-commit point, so the injected model is cycle-equivalent to the
// original (verified by tests).
#pragma once

#include <compare>
#include <string>
#include <vector>

#include "ir/design.h"

namespace xlv::mutation {

enum class MutantKind { MinDelay, MaxDelay, DeltaDelay };

/// The canonical kind name shared by the wire codecs and cache keys.
const char* mutantKindName(MutantKind k);
/// Every kind, for readers that find a kind by its name.
inline constexpr MutantKind kMutantKinds[] = {MutantKind::MinDelay, MutantKind::MaxDelay,
                                              MutantKind::DeltaDelay};

struct MutantSpec {
  std::string targetSignal;  ///< flat name of the monitored register
  MutantKind kind = MutantKind::MinDelay;
  int deltaTicks = 1;        ///< DeltaDelay: HF periods of delay (1-based)

  bool operator==(const MutantSpec&) const = default;
  auto operator<=>(const MutantSpec&) const = default;
};

struct InjectedMutant {
  int id = -1;
  MutantSpec spec;
  ir::SymbolId target = ir::kNoSymbol;
  ir::SymbolId tmpVar = ir::kNoSymbol;  ///< shared per target
};

struct InjectedDesign {
  ir::Design design;
  std::vector<InjectedMutant> mutants;

  /// Distinct mutated target symbols (each has one tmp variable).
  std::vector<std::pair<ir::SymbolId, ir::SymbolId>> targets() const;
};

/// Inject all `specs` into a copy of `original`. Mutants naming the same
/// target share one tmp variable and one code rewrite.
///
/// Throws std::invalid_argument when a target does not exist, is not a
/// scalar register driven by a single rising-edge synchronous process, is
/// assigned through bit-ranges, or when a DeltaDelay mutant is requested on
/// a design without a high-frequency clock.
InjectedDesign injectMutants(const ir::Design& original, const std::vector<MutantSpec>& specs);

}  // namespace xlv::mutation
