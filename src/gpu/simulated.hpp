// SimulatedGpu: a deterministic MI250X-GCD-like device model.
//
// The model is driven by the workload: the harness sets an offload activity
// level in [0,1] per phase and advances device time.  Clocks, busy
// percentages, power, voltage, and activity counters derive from the
// activity level; temperature follows power with first-order lag; energy
// integrates power over each advance; VRAM tracks explicit allocations.
// The derivations are tuned so an offloading miniQMC run reproduces the
// ranges in Listing 2 (GFX clock 800-1700 MHz, power 90-138 W, temperature
// 35-39 C, VRAM ramping from ~15 MB to ~4.8 GB).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/stats.hpp"
#include "gpu/device.hpp"

namespace zerosum::gpu {

struct SimulatedGpuParams {
  double idleClockMhz = 800.0;
  double maxClockMhz = 1700.0;
  double socClockMhz = 1090.0;
  double idlePowerW = 90.0;
  double maxPowerW = 560.0;   ///< board limit; miniQMC load stays well below
  double idleVoltageMv = 806.0;
  double maxVoltageMv = 1100.0;
  double ambientTempC = 35.0;
  double tempPerWatt = 0.055;       ///< steady-state °C above ambient per W over idle
  double tempLagPerSecond = 0.25;   ///< first-order approach rate
  /// Junction limit: above this the device sheds clocks (thermal
  /// throttling, as the real MI250X does at ~110 C edge temperature).
  double throttleTempC = 95.0;
  /// Clock reduction per degree over the limit.
  double throttleMhzPerDegree = 40.0;
  std::uint64_t vramTotalBytes = 64ULL << 30;
  std::uint64_t gttUsedBytes = 11624448;  ///< pinned host staging, constant
  std::uint64_t vramBaseBytes = 15044608; ///< runtime context footprint
  double gfxCounterRate = 94000.0;  ///< GFX activity counts per busy-second
  double memCounterRate = 3800.0;
  /// Metrics the device's management library exposes; empty = all (ROCm
  /// SMI).  query() returns only these.
  std::vector<Metric> exposedMetrics;
};

class SimulatedGpu final : public GpuDevice {
 public:
  SimulatedGpu(int visibleIndex, int physicalIndex, std::string model,
               SimulatedGpuParams params = {}, std::uint64_t seed = 0x6d0);

  // --- Workload drive -----------------------------------------------------
  /// Sets the offload activity level for subsequent time, in [0,1]
  /// (fraction of device engines busy).  Values are clamped.
  void setActivity(double level);
  /// Allocates/frees device memory (walker buffers, spline tables).
  void allocate(std::uint64_t bytes);
  void free(std::uint64_t bytes);
  /// Advances device time; integrates energy, settles temperature, and
  /// accumulates activity counters.
  void advance(double seconds);

  // --- GpuDevice ----------------------------------------------------------
  [[nodiscard]] int visibleIndex() const override { return visibleIndex_; }
  [[nodiscard]] int physicalIndex() const override { return physicalIndex_; }
  [[nodiscard]] std::string model() const override { return model_; }
  [[nodiscard]] Sample query() override;
  [[nodiscard]] MemoryInfo memoryInfo() const override;

  /// True when the last query saw the junction temperature above the
  /// throttle limit (clocks were reduced).
  [[nodiscard]] bool throttling() const { return throttling_; }

 private:
  [[nodiscard]] double powerW() const;

  int visibleIndex_;
  int physicalIndex_;
  std::string model_;
  SimulatedGpuParams params_;
  stats::SplitMix64 rng_;

  double activity_ = 0.0;
  double temperatureC_;
  std::uint64_t vramUsed_;
  double energySinceQueryJ_ = 0.0;
  double gfxCounterSinceQuery_ = 0.0;
  double memCounterSinceQuery_ = 0.0;
  bool throttling_ = false;
  /// params_.exposedMetrics as a presence mask; query() keeps only these.
  Sample::Mask exposedMask_ = 0;
};

/// A simulated device constrained to one vendor's metric surface, with a
/// vendor-appropriate model name.
std::shared_ptr<SimulatedGpu> makeVendorGpu(Vendor vendor, int visibleIndex,
                                            int physicalIndex,
                                            std::uint64_t seed = 0x6d0);

}  // namespace zerosum::gpu
