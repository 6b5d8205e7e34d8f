// Input shapes captured from the real export path: the metric names one
// Frontier rank publishes per sampling period, so generated load carries
// the same series count and name lengths as a monitored miniQMC rank.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aggregator/wire.hpp"

namespace zsb {

/// Metric names of one steady-state period of a simulated Frontier rank
/// (miniQMC, 7 OpenMP threads on 7 cores, one MI250X GCD), captured once
/// from SessionPublisher over SimProcFs.
const std::vector<std::string>& frontierRankMetrics();

/// Distinct pre-built periods per rank; period k reuses batch k % kPool.
constexpr std::size_t kPool = 64;

/// Integer-valued sample (exact in every sum) of metric `metric` in
/// period `period` of `rank`: the reference the checks recompute.
double sampleValue(std::uint64_t seed, int rank, std::size_t metric,
                   std::uint64_t period);

/// The kPool period batches of `rank` over `metrics` (interned), values
/// from sampleValue; the sender stamps the time of each use.
std::vector<std::vector<zerosum::aggregator::IdRecord>> buildPeriods(
    std::uint64_t seed, int rank, const std::vector<std::string>& metrics);

}  // namespace zsb
