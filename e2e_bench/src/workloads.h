// Seeded input generators of the benchmark's workloads.
//
// The seed draws axis values only — STA corner, threshold fraction, cycle
// budget within a narrow band, the served submission mix — and the program
// under test receives nothing but the generated CampaignSpecs. One seed
// always yields byte-identical encoded specs (pinned by the unit tests).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/mutation_analysis.h"
#include "campaign/campaign.h"

namespace xlv::e2e {

/// Thread and worker pin: hardware concurrency capped at 4, so a run on a
/// bigger host keeps the shape measured on a 4-core one.
int pinnedThreads();

/// plasma_long: one Plasma/Razor and one Plasma/Counter item running the
/// firmware for ~20k cycles, nothing shared between items.
campaign::CampaignSpec plasmaLongSpec(std::uint64_t seed, analysis::SimBackend backend);

/// sweep_shared: Filter, DSP and Handshake x Razor/Counter x 3 corners x
/// 3 threshold fractions x 3 mutant-set variants at ~8000 cycles,
/// with every sharing cache of the sweep layer on.
campaign::CampaignSpec sweepSharedSpec(std::uint64_t seed);

/// served_mix: a closed-loop submission sequence. `specs` holds the
/// distinct campaigns; `order[i]` is the spec the i-th submission sends (a
/// seeded share re-sends an earlier one, as users sharing work do).
struct ServedMix {
  std::vector<campaign::CampaignSpec> specs;
  std::vector<std::size_t> order;
};
ServedMix servedMix(std::uint64_t seed, std::size_t submissions);

/// The daemon warm-up campaign: one tiny item on axis values no mix
/// campaign uses, so it shares no cached artifact with the measured mix.
campaign::CampaignSpec servedWarmupSpec();

}  // namespace xlv::e2e
