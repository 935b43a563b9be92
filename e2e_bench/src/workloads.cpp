#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <thread>

#include "campaign/sweep.h"
#include "ips/case_study.h"
#include "util/fnv.h"
#include "util/prng.h"

namespace xlv::e2e {

int pinnedThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw == 0 ? 1u : hw, 1u, 4u));
}

namespace {

using insertion::SensorKind;

/// Per-workload stream: the same --seed draws unrelated values in each
/// workload.
util::Prng workloadPrng(std::uint64_t seed, const char* workload) {
  return util::Prng(util::fnv1a64(workload) ^ (seed * 0x9e3779b97f4a7c15ULL));
}

std::uint64_t cyclesInBand(util::Prng& rng, double nominal) {
  const double band = 0.995 + 0.01 * rng.uniform();  // +-0.5%
  return static_cast<std::uint64_t>(std::llround(nominal * band));
}

/// Round to 1/1000 so the drawn fraction renders compactly in labels.
double fractionIn(util::Prng& rng, double lo, double hi) {
  return std::round((lo + (hi - lo) * rng.uniform()) * 1000.0) / 1000.0;
}

sta::Corner pick(util::Prng& rng, const std::vector<sta::Corner>& pool) {
  return pool[rng.below(pool.size())];
}

core::FlowOptions campaignBase() {
  // A mutation campaign's deliverable is the verdict per mutant; the
  // Table 3/4 simulation-speed probes are off, as in every shipped preset.
  core::FlowOptions o;
  o.measureRtl = false;
  o.measureTlm = false;
  o.measureOptimized = false;
  return o;
}

}  // namespace

campaign::CampaignSpec plasmaLongSpec(std::uint64_t seed, analysis::SimBackend backend) {
  util::Prng rng = workloadPrng(seed, "plasma_long");
  core::FlowOptions base = campaignBase();
  base.testbenchCycles = cyclesInBand(rng, 20000);
  base.staCorner = pick(rng, {sta::Corner::slow(), sta::Corner::typical(), sta::Corner::fast()});
  base.staThresholdFraction = fractionIn(rng, 0.28, 0.32);
  base.backend = backend;

  campaign::CampaignSpec spec;
  spec.name = std::string("plasma_long/") + analysis::simBackendName(backend);
  spec.executor.threads = pinnedThreads();
  const ips::CaseStudy plasma = ips::buildPlasmaCase();
  for (SensorKind kind : {SensorKind::Razor, SensorKind::Counter}) {
    campaign::CampaignItem item;
    item.caseStudy = plasma;
    item.options = base;
    item.options.sensorKind = kind;
    item.label = std::string("plasma/") + insertion::sensorKindName(kind);
    spec.items.push_back(std::move(item));
  }
  return spec;
}

campaign::CampaignSpec sweepSharedSpec(std::uint64_t seed) {
  util::Prng rng = workloadPrng(seed, "sweep_shared");
  campaign::SweepSpec sweep;
  sweep.name = "sweep_shared";
  sweep.cases = {ips::buildFilterCase(), ips::buildDspCase(), ips::buildHandshakeCase()};
  sweep.base = campaignBase();
  sweep.base.testbenchCycles = cyclesInBand(rng, 8000);
  sweep.axes.sensorKinds = {SensorKind::Razor, SensorKind::Counter};
  // The corner axis is the three standard corners; the seed moves the
  // threshold points within narrow bands, so the amount of shared work stays
  // comparable from seed to seed.
  sweep.axes.corners = sta::standardCorners();
  sweep.axes.thresholdFractions = {fractionIn(rng, 0.23, 0.25), fractionIn(rng, 0.29, 0.31),
                                   fractionIn(rng, 0.35, 0.37)};
  sweep.axes.mutantSets = {core::MutantSetVariant::Full, core::MutantSetVariant::MinDelay,
                           core::MutantSetVariant::MaxDelay};
  sweep.executor.threads = pinnedThreads();
  return campaign::expandSweep(sweep);
}

/// Short budgets from a small set: users re-run the same few testbench
/// lengths, so the daemon's caches reach a steady state early and the
/// service path (admission, scheduling, IPC, codec, merge) dominates.
constexpr std::uint64_t kServedCycles[] = {64, 96, 128};

ServedMix servedMix(std::uint64_t seed, std::size_t submissions) {
  util::Prng rng = workloadPrng(seed, "served_mix");
  const std::vector<ips::CaseStudy> cases = {ips::buildFilterCase(), ips::buildDspCase(),
                                             ips::buildHandshakeCase()};
  const std::vector<sta::Corner> corners = {sta::Corner::typical(), sta::Corner::slow(),
                                            sta::Corner::fast()};
  // One sweep-point prototype per (case, kind, corner): expandSweep sets the
  // sharing flags, label and prefix key exactly as a user's sweep would;
  // the cycle budget (no part of the prefix key or label) is set per item.
  std::vector<campaign::CampaignItem> prototypes;
  for (const ips::CaseStudy& cs : cases) {
    for (SensorKind kind : {SensorKind::Razor, SensorKind::Counter}) {
      for (const sta::Corner& corner : corners) {
        campaign::SweepSpec point;
        point.cases = {cs};
        point.base = campaignBase();
        point.base.sensorKind = kind;
        point.axes.corners = {corner};
        point.executor.threads = 1;
        prototypes.push_back(campaign::expandSweep(point).items.at(0));
      }
    }
  }
  ServedMix mix;
  for (std::size_t i = 0; i < submissions; ++i) {
    if (i > 0 && rng.chance(0.25)) {
      mix.order.push_back(mix.order[rng.below(i)]);
      continue;
    }
    campaign::CampaignSpec spec;
    spec.name = "mix-" + std::to_string(mix.specs.size());
    spec.executor.threads = 1;  // the daemon's workers are the parallelism
    const std::size_t items = 1 + rng.below(8);
    for (std::size_t k = 0; k < items; ++k) {
      campaign::CampaignItem item = prototypes[rng.below(prototypes.size())];
      item.options.testbenchCycles = kServedCycles[rng.below(std::size(kServedCycles))];
      spec.items.push_back(std::move(item));
    }
    mix.order.push_back(mix.specs.size());
    mix.specs.push_back(std::move(spec));
  }
  return mix;
}

campaign::CampaignSpec servedWarmupSpec() {
  campaign::SweepSpec point;
  point.name = "warmup";
  point.cases = {ips::buildFilterCase()};
  point.base = campaignBase();
  point.base.testbenchCycles = 16;
  point.axes.thresholdFractions = {0.5};
  point.executor.threads = 1;
  return campaign::expandSweep(point);
}

}  // namespace xlv::e2e
