#include "campaign/sweep.h"

#include <cstdio>
#include <optional>
#include <type_traits>

namespace xlv::campaign {

namespace {

/// Shortest round-trippable rendering ("%g"): deterministic for a given
/// value, human-readable in labels.
std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

std::size_t sweepCardinality(const SweepSpec& sweep) {
  auto dim = [](std::size_t n) { return n == 0 ? std::size_t{1} : n; };
  const std::size_t perKind = dim(sweep.axes.corners.size()) *
                              dim(sweep.axes.thresholdFractions.size()) *
                              dim(sweep.axes.spreadFractions.size()) *
                              dim(sweep.axes.mutantSets.size());
  // The hf axis only applies to Counter items: Razor ignores hfRatio
  // (core::flowHfRatio), so sweeping it there would emit duplicate points.
  auto kindCount = [&](insertion::SensorKind k) {
    return perKind * (k == insertion::SensorKind::Razor
                          ? std::size_t{1}
                          : dim(sweep.axes.hfRatios.size()));
  };
  std::size_t total = 0;
  if (sweep.axes.sensorKinds.empty()) {
    total = kindCount(sweep.base.sensorKind);
  } else {
    for (auto k : sweep.axes.sensorKinds) total += kindCount(k);
  }
  return sweep.cases.size() * total;
}

std::string sweepPointLabel(const ips::CaseStudy& cs, const core::FlowOptions& opts,
                            const SweepAxes& axes) {
  std::string label = cs.name + "/" + insertion::sensorKindName(opts.sensorKind);
  if (!axes.corners.empty() && opts.staCorner) label += "/" + opts.staCorner->name;
  if (!axes.thresholdFractions.empty() && opts.staThresholdFraction) {
    label += "/thr=" + fmt(*opts.staThresholdFraction);
  }
  if (!axes.spreadFractions.empty() && opts.staSpreadFraction) {
    label += "/spread=" + fmt(*opts.staSpreadFraction);
  }
  if (!axes.hfRatios.empty() && opts.hfRatio) {
    label += "/hf=" + std::to_string(*opts.hfRatio);
  }
  if (!axes.mutantSets.empty()) {
    label += std::string("/mutants=") + core::mutantSetVariantName(opts.mutantSet);
  }
  return label;
}

CampaignSpec expandSweep(const SweepSpec& sweep) {
  CampaignSpec spec;
  spec.name = sweep.name;
  spec.executor = sweep.executor;

  // Each axis iterates its value list, or a single "unset" slot when the
  // axis is not swept (std::nullopt keeps the base/case-study value).
  auto forEach = [](auto&& values, auto&& fn) {
    using V = std::decay_t<decltype(values[0])>;
    if (values.empty()) {
      fn(std::optional<V>{});
    } else {
      for (const auto& v : values) fn(std::optional<V>{v});
    }
  };

  const std::vector<int> kNoHfAxis;
  for (const auto& cs : sweep.cases) {
    forEach(sweep.axes.sensorKinds, [&](std::optional<insertion::SensorKind> kind) {
      // Razor ignores hfRatio, so the hf axis collapses to one (unlabelled)
      // slot there — otherwise every hf value would duplicate the point.
      const insertion::SensorKind effKind = kind.value_or(sweep.base.sensorKind);
      const auto& hfAxis = effKind == insertion::SensorKind::Razor ? kNoHfAxis
                                                                   : sweep.axes.hfRatios;
      forEach(sweep.axes.corners, [&](std::optional<sta::Corner> corner) {
        forEach(sweep.axes.thresholdFractions, [&](std::optional<double> thr) {
          forEach(sweep.axes.spreadFractions, [&](std::optional<double> spread) {
            forEach(hfAxis, [&](std::optional<int> hf) {
              forEach(sweep.axes.mutantSets, [&](std::optional<core::MutantSetVariant> ms) {
                CampaignItem item;
                item.caseStudy = cs;
                item.options = sweep.base;
                if (kind) item.options.sensorKind = *kind;
                if (corner) item.options.staCorner = *corner;
                if (thr) item.options.staThresholdFraction = *thr;
                if (spread) item.options.staSpreadFraction = *spread;
                if (hf) item.options.hfRatio = *hf;
                if (ms) item.options.mutantSet = *ms;
                if (sweep.shareGoldenTraces) item.options.useGoldenCache = true;
                if (sweep.shareMutantResults) item.options.useMutantCache = true;
                item.label = sweepPointLabel(cs, item.options, sweep.axes);
                if (sweep.sharePrefixes) {
                  item.prefixKey = core::flowPrefixKey(cs, item.options);
                }
                spec.items.push_back(std::move(item));
              });
            });
          });
        });
      });
    });
  }
  return spec;
}

CampaignResult runSweep(const SweepSpec& sweep) { return runCampaign(expandSweep(sweep)); }

}  // namespace xlv::campaign
