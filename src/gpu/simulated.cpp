#include "gpu/simulated.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace zerosum::gpu {

std::string metricLabel(Metric metric) {
  switch (metric) {
    case Metric::kClockGfxMhz: return "Clock Frequency, GLX (MHz)";
    case Metric::kClockSocMhz: return "Clock Frequency, SOC (MHz)";
    case Metric::kDeviceBusyPct: return "Device Busy %";
    case Metric::kEnergyAverageJ: return "Energy Average (J)";
    case Metric::kGfxActivity: return "GFX Activity";
    case Metric::kGfxActivityPct: return "GFX Activity %";
    case Metric::kMemoryActivity: return "Memory Activity";
    case Metric::kMemoryBusyPct: return "Memory Busy %";
    case Metric::kMemoryControllerActivity:
      return "Memory Controller Activity";
    case Metric::kPowerAverageW: return "Power Average (W)";
    case Metric::kTemperatureC: return "Temperature (C)";
    case Metric::kVcnActivity: return "UVD|VCN Activity";
    case Metric::kUsedGttBytes: return "Used GTT Bytes";
    case Metric::kUsedVramBytes: return "Used VRAM Bytes";
    case Metric::kUsedVisibleVramBytes: return "Used Visible VRAM Bytes";
    case Metric::kVoltageMv: return "Voltage (mV)";
  }
  return "Unknown";
}

std::string vendorName(Vendor vendor) {
  switch (vendor) {
    case Vendor::kRocmSmi: return "ROCm SMI";
    case Vendor::kNvml: return "NVML";
    case Vendor::kSycl: return "SYCL";
  }
  return "Unknown";
}

std::vector<Metric> vendorMetrics(Vendor vendor) {
  switch (vendor) {
    case Vendor::kRocmSmi:
      return {kAllMetrics.begin(), kAllMetrics.end()};
    case Vendor::kNvml:
      // NVML: utilization, clocks, power/energy, temperature, memory —
      // but no raw activity counters, GTT, or voltage rail.
      return {Metric::kClockGfxMhz,     Metric::kClockSocMhz,
              Metric::kDeviceBusyPct,   Metric::kEnergyAverageJ,
              Metric::kMemoryBusyPct,   Metric::kPowerAverageW,
              Metric::kTemperatureC,    Metric::kUsedVramBytes};
    case Vendor::kSycl:
      // The SYCL device API: memory info and frequency only.
      return {Metric::kClockGfxMhz, Metric::kUsedVramBytes};
  }
  return {};
}

std::shared_ptr<SimulatedGpu> makeVendorGpu(Vendor vendor, int visibleIndex,
                                            int physicalIndex,
                                            std::uint64_t seed) {
  SimulatedGpuParams params;
  params.exposedMetrics = vendorMetrics(vendor);
  std::string model;
  switch (vendor) {
    case Vendor::kRocmSmi: model = "AMD MI250X GCD"; break;
    case Vendor::kNvml: model = "NVIDIA A100"; break;
    case Vendor::kSycl: model = "Intel Data Center GPU Max"; break;
  }
  return std::make_shared<SimulatedGpu>(visibleIndex, physicalIndex,
                                        std::move(model), params, seed);
}

SimulatedGpu::SimulatedGpu(int visibleIndex, int physicalIndex,
                           std::string model, SimulatedGpuParams params,
                           std::uint64_t seed)
    : visibleIndex_(visibleIndex),
      physicalIndex_(physicalIndex),
      model_(std::move(model)),
      params_(params),
      rng_(seed),
      temperatureC_(params.ambientTempC),
      vramUsed_(params.vramBaseBytes) {
  for (Metric metric : params_.exposedMetrics) {
    exposedMask_ |= Sample::bit(metric);
  }
  if (params_.exposedMetrics.empty()) {
    exposedMask_ = std::numeric_limits<Sample::Mask>::max();
  }
}

void SimulatedGpu::setActivity(double level) {
  activity_ = std::clamp(level, 0.0, 1.0);
}

void SimulatedGpu::allocate(std::uint64_t bytes) {
  if (vramUsed_ + bytes > params_.vramTotalBytes) {
    throw StateError("SimulatedGpu: VRAM exhausted (used " +
                     std::to_string(vramUsed_) + " + " +
                     std::to_string(bytes) + " > " +
                     std::to_string(params_.vramTotalBytes) + ")");
  }
  vramUsed_ += bytes;
}

void SimulatedGpu::free(std::uint64_t bytes) {
  const std::uint64_t releasable =
      vramUsed_ > params_.vramBaseBytes ? vramUsed_ - params_.vramBaseBytes : 0;
  vramUsed_ -= std::min(bytes, releasable);
}

double SimulatedGpu::powerW() const {
  // Power rises superlinearly with activity (clock *and* voltage scale).
  const double span = params_.maxPowerW - params_.idlePowerW;
  return params_.idlePowerW + span * 0.12 * activity_ +
         span * 0.08 * activity_ * activity_;
}

void SimulatedGpu::advance(double seconds) {
  if (seconds < 0.0) {
    throw StateError("SimulatedGpu::advance: negative time");
  }
  const double p = powerW();
  energySinceQueryJ_ += p * seconds;
  gfxCounterSinceQuery_ += params_.gfxCounterRate * activity_ * seconds;
  memCounterSinceQuery_ += params_.memCounterRate * activity_ * seconds;

  // First-order temperature approach toward the steady state for this power.
  const double target =
      params_.ambientTempC + params_.tempPerWatt * (p - params_.idlePowerW);
  const double alpha =
      1.0 - std::exp(-params_.tempLagPerSecond * seconds);
  temperatureC_ += (target - temperatureC_) * alpha;
}

Sample SimulatedGpu::query() {
  Sample s;
  const double jitter = (rng_.nextDouble() - 0.5) * 0.04;  // ±2% sensor noise
  const double act = std::clamp(activity_ * (1.0 + jitter), 0.0, 1.0);

  const double clockSpan = params_.maxClockMhz - params_.idleClockMhz;
  double gfxClock =
      act <= 0.0 ? params_.idleClockMhz
                 : std::min(params_.maxClockMhz,
                            params_.idleClockMhz + clockSpan * (0.6 + 0.4 * act));
  // Thermal throttling: over the junction limit the firmware sheds clocks
  // toward the floor (visible in the report as a clock dip at temp max).
  throttling_ = temperatureC_ > params_.throttleTempC;
  if (throttling_) {
    const double over = temperatureC_ - params_.throttleTempC;
    gfxClock = std::max(params_.idleClockMhz,
                        gfxClock - over * params_.throttleMhzPerDegree);
  }
  s[Metric::kClockGfxMhz] = gfxClock;
  s[Metric::kClockSocMhz] = params_.socClockMhz;
  s[Metric::kDeviceBusyPct] = std::round(act * 100.0);
  s[Metric::kEnergyAverageJ] = energySinceQueryJ_;
  s[Metric::kGfxActivity] = std::round(gfxCounterSinceQuery_);
  s[Metric::kGfxActivityPct] = std::round(act * 100.0 * 0.95);
  s[Metric::kMemoryActivity] = std::round(memCounterSinceQuery_);
  s[Metric::kMemoryBusyPct] = std::round(act * 6.0);
  s[Metric::kMemoryControllerActivity] = std::round(act * 4.0);
  s[Metric::kPowerAverageW] = std::round(powerW());
  s[Metric::kTemperatureC] = std::round(temperatureC_);
  s[Metric::kVcnActivity] = 0.0;  // no video decode in HPC workloads
  s[Metric::kUsedGttBytes] = static_cast<double>(params_.gttUsedBytes);
  s[Metric::kUsedVramBytes] = static_cast<double>(vramUsed_);
  // A fraction of VRAM is host-visible; the runtime maps everything the
  // application touches, so the two track each other (as in Listing 2).
  s[Metric::kUsedVisibleVramBytes] = static_cast<double>(vramUsed_);
  const double vSpan = params_.maxVoltageMv - params_.idleVoltageMv;
  s[Metric::kVoltageMv] =
      std::round(params_.idleVoltageMv + vSpan * (0.2 + 0.8 * act) *
                                             (act > 0.0 ? 1.0 : 0.0));

  // Interval counters reset on read (ROCm SMI accumulator semantics).
  energySinceQueryJ_ = 0.0;
  gfxCounterSinceQuery_ = 0.0;
  memCounterSinceQuery_ = 0.0;

  // Only what the device's management library exposes.
  s.retain(exposedMask_);
  return s;
}

MemoryInfo SimulatedGpu::memoryInfo() const {
  MemoryInfo info;
  info.totalBytes = params_.vramTotalBytes;
  info.usedBytes = vramUsed_;
  return info;
}

}  // namespace zerosum::gpu
