#include "core/records.hpp"

#include <algorithm>
#include <iterator>

#include "common/error.hpp"

namespace zerosum::core {

namespace {
const CpuSet kEmptySet{};
}

double LwpRecord::avgUtimePerPeriod() const {
  if (samples.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const auto& s : samples) {
    total += static_cast<double>(s.utimeDelta);
  }
  return total / static_cast<double>(samples.size());
}

double LwpRecord::avgStimePerPeriod() const {
  if (samples.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const auto& s : samples) {
    total += static_cast<double>(s.stimeDelta);
  }
  return total / static_cast<double>(samples.size());
}

std::uint64_t LwpRecord::totalVoluntaryCtx() const {
  return samples.empty() ? 0 : samples.back().voluntaryCtx;
}

std::uint64_t LwpRecord::totalNonvoluntaryCtx() const {
  return samples.empty() ? 0 : samples.back().nonvoluntaryCtx;
}

std::uint64_t LwpRecord::totalUtime() const {
  return samples.empty() ? 0 : samples.back().utime;
}

std::uint64_t LwpRecord::totalStime() const {
  return samples.empty() ? 0 : samples.back().stime;
}

std::uint64_t LwpRecord::observedMigrations() const {
  std::uint64_t migrations = 0;
  int previous = -1;
  for (const auto& s : samples) {
    if (previous >= 0 && s.processor >= 0 && s.processor != previous) {
      ++migrations;
    }
    if (s.processor >= 0) {
      previous = s.processor;
    }
  }
  return migrations;
}

void LwpRecord::addSample(const LwpSample& sample, const CpuSet& affinity) {
  if (!(affinity == lastAffinity())) {
    affinityChanges.push_back({samples.size(), affinity});
  }
  samples.push_back(sample);
}

const CpuSet& LwpRecord::lastAffinity() const {
  return affinityChanges.empty() ? kEmptySet : affinityChanges.back().cpus;
}

bool LwpRecord::affinityChanged() const {
  // One entry starting after sample 0 follows an implicit empty run.
  return affinityChanges.size() > 1 ||
         (affinityChanges.size() == 1 &&
          affinityChanges.front().firstSample > 0);
}

const CpuSet& LwpRecord::affinityAt(std::size_t sampleIndex) const {
  const auto it = std::upper_bound(
      affinityChanges.begin(), affinityChanges.end(), sampleIndex,
      [](std::size_t index, const AffinityChange& change) {
        return index < change.firstSample;
      });
  return it == affinityChanges.begin() ? kEmptySet : std::prev(it)->cpus;
}

namespace {

double averageOf(const std::vector<HwtSample>& samples,
                 double HwtSample::* field) {
  if (samples.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const auto& s : samples) {
    total += s.*field;
  }
  return total / static_cast<double>(samples.size());
}

}  // namespace

double HwtRecord::avgUserPct() const {
  return averageOf(samples, &HwtSample::userPct);
}

double HwtRecord::avgSystemPct() const {
  return averageOf(samples, &HwtSample::systemPct);
}

double HwtRecord::avgIdlePct() const {
  return averageOf(samples, &HwtSample::idlePct);
}

void GpuRecord::addSample(double timeSeconds, const gpu::Sample& sample) {
  for (const auto& [metric, value] : sample) {
    accumulators[metric].add(value);
  }
  samples.emplace_back(timeSeconds, sample);
}

}  // namespace zerosum::core
