// Process-wide per-mutant result cache (ROADMAP: "per-mutant result
// sharing across variants").
//
// The mutant-set-variant sweep axis re-simulates work: `full` injects and
// simulates every generated mutant, while `min`/`max` keep a subset of the
// very same mutants (core::sliceMutantSet) — their golden-vs-injected
// co-simulations are identical because an inactive mutant commits its
// target at the normal edge point (mutation/adam.h: the injected model is
// cycle-equivalent to the augmented design whichever other mutants ride
// along). A MutantResult is therefore fully determined by
//
//   (augmented-design identity, observed endpoints, testbench identity,
//    scheduler/recording config)  x  (mutant class),
//
// where the first factor is exactly the golden-trace key
// (analysis/golden_cache.h) — the golden trace is derived from the same
// inputs — and the second is the mutant's class, written as its canonical
// spec (abstraction::mutantClassSpec, abstraction/tlm_model.h): its target
// at the class's lowest phase point, in the form the shipped generators
// write. Razor's MinDelay and MaxDelay mutants of one endpoint (hfRatio 0)
// therefore share one entry, so a sweep's `max` variant reuses the results
// its `min` variant stored.
//
// Stored values are normalised to that spec: id = -1 (the id is the index
// in the *current* injected set, which differs between variants), and the
// canonical spec's kind and deltaTicks. A reader fixes up id, kind and
// deltaTicks from its own injected mutant on every reuse
// (mutation_analysis.cpp), which keeps variant and fragment reports
// bit-identical to uncached runs; a reader that fixes up only the
// id and looks up its own spec's key still reads a correct value, because
// a key only ever holds the result of the spec it names.
//
// Under XLV_REFERENCE_SIM=1 every mutant is its own class and is keyed on
// its own spec, so the reference path still simulates every member.
//
// Enabled by AnalysisConfig/FlowOptions::useMutantCache (sweeps turn it on
// by default); layered over util::processArtifactStore() (domain "mutant")
// when one is configured, so warm processes skip the simulations entirely.
// The stored form is mutantResultFields below, the one field list the
// campaign wire codec shares.
#pragma once

#include <string>
#include <string_view>

#include "analysis/mutation_analysis.h"
#include "mutation/adam.h"
#include "util/codec.h"
#include "util/once_cache.h"

namespace xlv::analysis {

/// Cache key of one mutant's result: the golden-trace key of its analysis
/// (design fingerprint, endpoints, testbench, config, value policy) plus
/// the mutant spec (the analysis passes its class's mutantClassSpec).
/// Length-prefixed like every other cache key.
std::string mutantResultKey(const std::string& goldenKey, const mutation::MutantSpec& spec);

/// The process-wide cache. Values are normalised to their key's spec
/// (id = -1, the spec's kind and deltaTicks); copy and fix id, kind and
/// deltaTicks up before putting one into a report.
util::OnceCache<MutantResult>& mutantResultCache();

/// The field list (util/codec.h) of a MutantResult's CONTENT — every field
/// except the id, which is variant-local and handled by each caller. The ONE
/// list shared by the campaign wire codec (campaign/serialize.cpp, prefix
/// "mut.") and the artifact codec below (no prefix): a new MutantResult
/// field added here reaches both formats, so warm-vs-cold bit-identity
/// cannot silently drift.
template <class Ar>
void mutantResultFields(Ar& ar, std::string_view prefix, MutantResult& r) {
  const auto name = [prefix](const char* field) { return std::string(prefix) + field; };
  ar.str(name("endpoint"), r.endpoint);
  ar.enumeration(name("kind"), r.kind, mutation::mutantKindName, mutation::kMutantKinds);
  ar.i64(name("deltaTicks"), r.deltaTicks);
  ar.boolean(name("killed"), r.killed);
  ar.boolean(name("detected"), r.detected);
  ar.boolean(name("errorRisen"), r.errorRisen);
  ar.boolean(name("corrected"), r.corrected);
  ar.boolean(name("correctionChecked"), r.correctionChecked);
  ar.u64(name("measuredDelay"), r.measuredDelay);
}

/// Byte-stable artifact codec (util/codec.h) for the disk spill. The id
/// travels as the normalized -1 so one entry serves every variant; decode
/// throws util::DecodeError on truncation, version skew, an unknown mutant
/// kind or an integer outside its field's type.
std::string encodeMutantResultArtifact(const MutantResult& result);
MutantResult decodeMutantResultArtifact(std::string_view data);

}  // namespace xlv::analysis
