#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/fnv.h"

namespace xlv::e2e {

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

std::size_t nearestRank(std::size_t n, double p) {
  if (!(p > 0.0 && p <= 1.0)) throw std::invalid_argument("percentile outside (0, 1]");
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of an empty sample");
  std::sort(samples.begin(), samples.end());
  return samples[nearestRank(samples.size(), p) - 1];
}

std::size_t samplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearestRank(n, p);
}

std::optional<double> reportablePercentile(const std::vector<double>& samples, double p,
                                           std::size_t minBeyond) {
  if (samples.empty() || samplesBeyond(samples.size(), p) < minBeyond) return std::nullopt;
  return percentile(samples, p);
}

std::uint64_t verdictDigest(const campaign::CampaignResult& result) {
  std::uint64_t h = util::kFnvOffset;
  for (const auto& item : result.items) {
    h = util::fnv1a64(item.label, h);
    h = util::fnv1a64(item.error, h);
    for (const auto& m : item.report.analysis.results) {
      h = util::fnv1a64Mix(static_cast<std::uint64_t>(m.id), h);
      h = util::fnv1a64(m.endpoint, h);
      h = util::fnv1a64Mix(static_cast<std::uint64_t>(m.kind), h);
      h = util::fnv1a64Mix(static_cast<std::uint64_t>(m.deltaTicks), h);
      const std::uint64_t flags = (m.killed ? 1u : 0u) | (m.detected ? 2u : 0u) |
                                  (m.errorRisen ? 4u : 0u) | (m.corrected ? 8u : 0u) |
                                  (m.correctionChecked ? 16u : 0u);
      h = util::fnv1a64Mix(flags, h);
      h = util::fnv1a64Mix(m.measuredDelay, h);
    }
  }
  return h;
}

}  // namespace xlv::e2e
