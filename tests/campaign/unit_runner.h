// Run a campaign the way the xlv_campaignd worker pool does, in this
// process: plan its dispatch units, build each unit's frame as the pool
// does, run it the way a cold worker process would, and merge the outputs.
// The conformance suites and bench/campaign_shard compare the merged result
// against the single-process truth.
#pragma once

#include <string>
#include <vector>

#include "campaign/serialize.h"
#include "campaign/shard.h"
#include "core/flow.h"

namespace xlv::campaign {

/// How each simulated worker receives its unit's frame. A worker process
/// decodes the wire form; InMemory skips that round trip for specs it would
/// change (the codec rebuilds case studies by name, which heals a
/// deliberately broken module).
enum class SpecTransport { Wire, InMemory };

/// One output per dispatch unit of `spec` split at `maxFragmentMutants`,
/// each run as a cold worker runs it: process caches cleared, the unit's
/// frame decoded from its wire form, the output round-tripped through the
/// codec. The caches are cleared again before returning.
inline std::vector<ShardOutput> runDispatchUnits(
    const CampaignSpec& spec, std::size_t maxFragmentMutants,
    SpecTransport transport = SpecTransport::Wire) {
  const DispatchUnitPlan plan = planDispatchUnits(spec, maxFragmentMutants);
  std::vector<ShardOutput> outputs;
  outputs.reserve(plan.units.size());
  for (std::size_t i = 0; i < plan.units.size(); ++i) {
    core::clearProcessCaches();
    SubmitFrame frame = unitFrame(spec, plan.specFnv, plan.units[i], i, plan.units.size());
    if (transport == SpecTransport::Wire) frame = decodeSubmitFrame(encodeSubmitFrame(frame));
    outputs.push_back(decodeShardOutput(encodeShardOutput(runUnitFrame(frame))));
  }
  core::clearProcessCaches();
  return outputs;
}

/// runDispatchUnits, merged with mergeShards.
inline CampaignResult runAndMergeUnits(const CampaignSpec& spec,
                                       std::size_t maxFragmentMutants,
                                       SpecTransport transport = SpecTransport::Wire) {
  return mergeShards(spec, runDispatchUnits(spec, maxFragmentMutants, transport));
}

}  // namespace xlv::campaign
