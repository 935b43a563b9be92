// Order statistics of the benchmark's samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "campaign/campaign.h"

namespace xlv::e2e {

/// Median (mean of the two middle values for an even count). Throws
/// std::invalid_argument on an empty sample.
double median(std::vector<double> samples);

/// Nearest-rank percentile p in (0, 1]: the smallest sample with at least
/// p * n samples at or below it.
double percentile(std::vector<double> samples, double p);

/// Samples strictly beyond the nearest-rank percentile's rank (n - ceil(p n)).
std::size_t samplesBeyond(std::size_t n, double p);

/// The percentile only when at least `minBeyond` samples lie beyond it —
/// the rule for reporting a tail: a p90 over 50 samples rests on five
/// observations and is not reported.
std::optional<double> reportablePercentile(const std::vector<double>& samples, double p,
                                           std::size_t minBeyond = 10);

/// FNV-1a over every per-mutant verdict of a result, in item order: a
/// compact identity of what a campaign decided (labels, errors and the
/// MutantResult fields; no timings, no cache ledgers).
std::uint64_t verdictDigest(const campaign::CampaignResult& result);

}  // namespace xlv::e2e
