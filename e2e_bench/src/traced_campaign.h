// The traced campaign runner: runCampaign's schedule, with the benchmark
// calling each layer's public functions itself so it can put a span around
// every layer boundary.
//
// Per item (trace id = traceBase + task id + 1):
//   campaign.item
//     store.load / codec.decode / store.store / codec.encode  (artifact traffic)
//     flow.elaborate, flow.insertion        (or the stage prefix from the cache)
//     flow.abstraction, flow.injection
//     abstraction.native_compile            (native legs: both libraries)
//     analysis.golden                       (recordGoldenTrace)
//     analysis.prepare                      (prepareMutationCampaign)
//     analysis.mutant                       (one per simulateMutant)
//
// The result is sameResults-identical to runCampaign(spec) — the caller
// checks it. Ledger fields differ where the runner itself did the work the
// program would have done (the golden trace is recorded by the runner and
// handed to prepareMutationCampaign through the golden cache).
#pragma once

#include <cstdint>

#include "campaign/campaign.h"
#include "trace.h"

namespace xlv::e2e {

/// Counter names the runner adds to the tracer (summed over items):
///   flow.items, flow.prefix_hits, analysis.mutants,
///   analysis.mutant_cache_hits, analysis.cycles_simulated,
///   analysis.cycles_skipped, abstraction.{interp,native}_mutant_s,
///   abstraction.{interp,native}_cycles, abstraction.native_compiles,
///   store.hits, store.stores, store.bytes, codec.bytes.
campaign::CampaignResult runTracedCampaign(const campaign::CampaignSpec& spec, Tracer& tracer,
                                           std::uint64_t traceBase);

}  // namespace xlv::e2e
