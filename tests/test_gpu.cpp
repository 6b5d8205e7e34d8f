#include "gpu/simulated.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace zerosum::gpu {
namespace {

TEST(MetricLabel, MatchesListing2Strings) {
  EXPECT_EQ(metricLabel(Metric::kClockGfxMhz), "Clock Frequency, GLX (MHz)");
  EXPECT_EQ(metricLabel(Metric::kDeviceBusyPct), "Device Busy %");
  EXPECT_EQ(metricLabel(Metric::kVcnActivity), "UVD|VCN Activity");
  EXPECT_EQ(metricLabel(Metric::kUsedVisibleVramBytes),
            "Used Visible VRAM Bytes");
}

TEST(MetricArray, PresenceFollowsWrites) {
  Sample s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.count(Metric::kPowerAverageW));
  EXPECT_THROW((void)s.at(Metric::kPowerAverageW), std::out_of_range);
  s[Metric::kPowerAverageW] = 120.0;
  s[Metric::kClockGfxMhz];  // operator[] marks present, as std::map does
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.count(Metric::kPowerAverageW));
  EXPECT_DOUBLE_EQ(s.at(Metric::kPowerAverageW), 120.0);
  EXPECT_DOUBLE_EQ(s.at(Metric::kClockGfxMhz), 0.0);
}

TEST(MetricArray, IteratesPresentMetricsInEnumOrder) {
  Sample s;
  s[Metric::kVoltageMv] = 3.0;
  s[Metric::kClockGfxMhz] = 1.0;
  s[Metric::kTemperatureC] = 2.0;
  std::vector<std::pair<Metric, double>> seen;
  for (const auto& [metric, value] : s) {
    seen.emplace_back(metric, value);
  }
  const std::vector<std::pair<Metric, double>> expected = {
      {Metric::kClockGfxMhz, 1.0},
      {Metric::kTemperatureC, 2.0},
      {Metric::kVoltageMv, 3.0}};
  EXPECT_EQ(seen, expected);
}

TEST(MetricArray, RetainDropsAndResetsOthers) {
  Sample s;
  s[Metric::kClockGfxMhz] = 1.0;
  s[Metric::kUsedGttBytes] = 2.0;
  s.retain(Sample::bit(Metric::kClockGfxMhz));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_FALSE(s.count(Metric::kUsedGttBytes));
  // A dropped metric written again starts from zero, not the old value.
  EXPECT_DOUBLE_EQ(s[Metric::kUsedGttBytes], 0.0);
  Sample same;
  same[Metric::kClockGfxMhz] = 1.0;
  same[Metric::kUsedGttBytes] = 0.0;
  EXPECT_EQ(s, same);
}

TEST(MetricArray, SampleIsAFixedSizeValue) {
  static_assert(sizeof(Sample) <= 17 * sizeof(double));
  static_assert(std::is_trivially_copyable_v<Sample>);
}

TEST(SimulatedGpu, Identity) {
  SimulatedGpu gpu(0, 4, "AMD MI250X GCD");
  EXPECT_EQ(gpu.visibleIndex(), 0);
  EXPECT_EQ(gpu.physicalIndex(), 4);
  EXPECT_EQ(gpu.model(), "AMD MI250X GCD");
}

TEST(SimulatedGpu, IdleStateMatchesListing2Floors) {
  SimulatedGpu gpu(0, 0, "gcd");
  const Sample s = gpu.query();
  EXPECT_DOUBLE_EQ(s.at(Metric::kClockGfxMhz), 800.0);
  EXPECT_DOUBLE_EQ(s.at(Metric::kClockSocMhz), 1090.0);
  EXPECT_DOUBLE_EQ(s.at(Metric::kDeviceBusyPct), 0.0);
  EXPECT_DOUBLE_EQ(s.at(Metric::kPowerAverageW), 90.0);
  EXPECT_DOUBLE_EQ(s.at(Metric::kTemperatureC), 35.0);
  EXPECT_DOUBLE_EQ(s.at(Metric::kVcnActivity), 0.0);
  EXPECT_DOUBLE_EQ(s.at(Metric::kUsedGttBytes), 11624448.0);
  EXPECT_DOUBLE_EQ(s.at(Metric::kUsedVramBytes), 15044608.0);
}

TEST(SimulatedGpu, QueryReportsAllMetrics) {
  SimulatedGpu gpu(0, 0, "gcd");
  const Sample s = gpu.query();
  for (Metric m : kAllMetrics) {
    EXPECT_TRUE(s.count(m)) << metricLabel(m);
  }
}

TEST(SimulatedGpu, ActivityRaisesBusyAndClocks) {
  SimulatedGpu gpu(0, 0, "gcd");
  gpu.setActivity(0.5);
  gpu.advance(1.0);
  const Sample s = gpu.query();
  EXPECT_GT(s.at(Metric::kDeviceBusyPct), 30.0);
  EXPECT_LT(s.at(Metric::kDeviceBusyPct), 70.0);
  EXPECT_GT(s.at(Metric::kClockGfxMhz), 1200.0);
  EXPECT_LE(s.at(Metric::kClockGfxMhz), 1700.0);
  EXPECT_GT(s.at(Metric::kPowerAverageW), 100.0);
  EXPECT_GT(s.at(Metric::kVoltageMv), 806.0);
}

TEST(SimulatedGpu, ActivityClamped) {
  SimulatedGpu gpu(0, 0, "gcd");
  gpu.setActivity(5.0);
  gpu.advance(1.0);
  EXPECT_LE(gpu.query().at(Metric::kDeviceBusyPct), 100.0);
  gpu.setActivity(-2.0);
  gpu.advance(1.0);
  gpu.advance(1.0);
  EXPECT_DOUBLE_EQ(gpu.query().at(Metric::kDeviceBusyPct), 0.0);
}

TEST(SimulatedGpu, EnergyIntegratesPowerOverTime) {
  SimulatedGpu gpu(0, 0, "gcd");
  gpu.setActivity(0.0);
  gpu.advance(2.0);  // 2 s at idle 90 W -> 180 J
  const Sample s = gpu.query();
  EXPECT_NEAR(s.at(Metric::kEnergyAverageJ), 180.0, 1e-9);
}

TEST(SimulatedGpu, IntervalCountersResetOnQuery) {
  SimulatedGpu gpu(0, 0, "gcd");
  gpu.setActivity(0.5);
  gpu.advance(1.0);
  const double first = gpu.query().at(Metric::kEnergyAverageJ);
  EXPECT_GT(first, 0.0);
  // No advance between queries: interval counters are back to zero.
  EXPECT_DOUBLE_EQ(gpu.query().at(Metric::kEnergyAverageJ), 0.0);
}

TEST(SimulatedGpu, TemperatureLagsAndSettles) {
  SimulatedGpu gpu(0, 0, "gcd");
  gpu.setActivity(1.0);
  gpu.advance(1.0);
  const double early = gpu.query().at(Metric::kTemperatureC);
  for (int i = 0; i < 60; ++i) {
    gpu.advance(1.0);
  }
  const double settled = gpu.query().at(Metric::kTemperatureC);
  EXPECT_GT(settled, early);
  // Steady state for full miniQMC-scale load stays in Listing 2's band.
  EXPECT_GT(settled, 36.0);
  EXPECT_LT(settled, 42.0);
}

TEST(SimulatedGpu, VramAllocationTracksUp) {
  SimulatedGpu gpu(0, 0, "gcd");
  const auto before = gpu.memoryInfo();
  gpu.allocate(1ULL << 30);
  const auto after = gpu.memoryInfo();
  EXPECT_EQ(after.usedBytes - before.usedBytes, 1ULL << 30);
  EXPECT_EQ(after.freeBytes(), after.totalBytes - after.usedBytes);
  EXPECT_DOUBLE_EQ(gpu.query().at(Metric::kUsedVramBytes),
                   static_cast<double>(after.usedBytes));
}

TEST(SimulatedGpu, FreeNeverDropsBelowBaseFootprint) {
  SimulatedGpu gpu(0, 0, "gcd");
  gpu.allocate(100 << 20);
  gpu.free(1ULL << 40);  // free far more than allocated
  EXPECT_EQ(gpu.memoryInfo().usedBytes, 15044608u);
}

TEST(SimulatedGpu, VramExhaustionThrows) {
  SimulatedGpuParams params;
  params.vramTotalBytes = 1 << 20;
  params.vramBaseBytes = 0;
  SimulatedGpu gpu(0, 0, "gcd", params);
  gpu.allocate(1 << 19);
  EXPECT_THROW(gpu.allocate(1 << 20), StateError);
}

TEST(SimulatedGpu, NegativeAdvanceThrows) {
  SimulatedGpu gpu(0, 0, "gcd");
  EXPECT_THROW(gpu.advance(-1.0), StateError);
}

TEST(SimulatedGpu, DeterministicWithSeed) {
  auto run = [] {
    SimulatedGpu gpu(0, 0, "gcd", SimulatedGpuParams{}, 123);
    gpu.setActivity(0.4);
    std::vector<double> out;
    for (int i = 0; i < 5; ++i) {
      gpu.advance(1.0);
      out.push_back(gpu.query().at(Metric::kDeviceBusyPct));
    }
    return out;
  };
  EXPECT_EQ(run(), run());
}

TEST(SimulatedGpu, MiniQmcScaleRunMatchesListing2Ranges) {
  // Offload phases alternating with idle: the min/avg/max envelope should
  // land in the ranges Listing 2 reports.
  SimulatedGpu gpu(0, 4, "gcd");
  gpu.allocate(4ULL << 30);  // walker buffers
  double busyMin = 1e9;
  double busyMax = -1e9;
  double powerMax = 0;
  for (int step = 0; step < 200; ++step) {
    gpu.setActivity(step % 2 == 0 ? 0.4 : 0.0);
    gpu.advance(1.0);
    const Sample s = gpu.query();
    busyMin = std::min(busyMin, s.at(Metric::kDeviceBusyPct));
    busyMax = std::max(busyMax, s.at(Metric::kDeviceBusyPct));
    powerMax = std::max(powerMax, s.at(Metric::kPowerAverageW));
  }
  EXPECT_DOUBLE_EQ(busyMin, 0.0);
  EXPECT_GT(busyMax, 30.0);
  EXPECT_LT(busyMax, 60.0);
  EXPECT_GT(powerMax, 110.0);
  EXPECT_LT(powerMax, 150.0);
}

TEST(SimulatedGpu, ThermalThrottlingShedsClocks) {
  SimulatedGpuParams params;
  params.throttleTempC = 40.0;       // low limit so the test reaches it
  params.tempLagPerSecond = 2.0;     // settle quickly
  SimulatedGpu gpu(0, 0, "gcd", params);
  gpu.setActivity(1.0);
  gpu.advance(1.0);
  const double coolClock = gpu.query().at(Metric::kClockGfxMhz);
  EXPECT_FALSE(gpu.throttling());
  for (int i = 0; i < 30; ++i) {
    gpu.advance(1.0);
  }
  const double hotClock = gpu.query().at(Metric::kClockGfxMhz);
  EXPECT_TRUE(gpu.throttling());
  EXPECT_LT(hotClock, coolClock);
  EXPECT_GE(hotClock, params.idleClockMhz);
}

TEST(SimulatedGpu, NoThrottleBelowLimit) {
  SimulatedGpu gpu(0, 0, "gcd");  // default 95 C limit, miniQMC stays ~36 C
  gpu.setActivity(0.5);
  for (int i = 0; i < 60; ++i) {
    gpu.advance(1.0);
  }
  (void)gpu.query();
  EXPECT_FALSE(gpu.throttling());
}

TEST(VendorProfiles, Names) {
  EXPECT_EQ(vendorName(Vendor::kRocmSmi), "ROCm SMI");
  EXPECT_EQ(vendorName(Vendor::kNvml), "NVML");
  EXPECT_EQ(vendorName(Vendor::kSycl), "SYCL");
}

TEST(VendorProfiles, MetricSurfacesNest) {
  const auto rocm = vendorMetrics(Vendor::kRocmSmi);
  const auto nvml = vendorMetrics(Vendor::kNvml);
  const auto sycl = vendorMetrics(Vendor::kSycl);
  EXPECT_EQ(rocm.size(), kAllMetrics.size());
  EXPECT_LT(nvml.size(), rocm.size());
  EXPECT_LT(sycl.size(), nvml.size());
  // SYCL's metrics are a subset of NVML's, which are a subset of ROCm's.
  for (Metric m : sycl) {
    EXPECT_NE(std::find(nvml.begin(), nvml.end(), m), nvml.end());
  }
}

TEST(VendorProfiles, QueryHonoursTheSurface) {
  auto nvml = makeVendorGpu(Vendor::kNvml, 0, 0);
  nvml->setActivity(0.5);
  nvml->advance(1.0);
  const Sample s = nvml->query();
  EXPECT_EQ(s.size(), vendorMetrics(Vendor::kNvml).size());
  EXPECT_TRUE(s.count(Metric::kPowerAverageW));
  EXPECT_FALSE(s.count(Metric::kGfxActivity));     // ROCm-only counter
  EXPECT_FALSE(s.count(Metric::kUsedGttBytes));
  EXPECT_FALSE(s.count(Metric::kVoltageMv));
}

TEST(VendorProfiles, SyclSurfaceIsMinimal) {
  auto sycl = makeVendorGpu(Vendor::kSycl, 1, 1);
  const Sample s = sycl->query();
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.count(Metric::kClockGfxMhz));
  EXPECT_TRUE(s.count(Metric::kUsedVramBytes));
  EXPECT_EQ(sycl->model(), "Intel Data Center GPU Max");
}

TEST(VendorProfiles, RocmExposesEverything) {
  auto rocm = makeVendorGpu(Vendor::kRocmSmi, 0, 4);
  const Sample s = rocm->query();
  EXPECT_EQ(s.size(), kAllMetrics.size());
  EXPECT_EQ(rocm->model(), "AMD MI250X GCD");
}

}  // namespace
}  // namespace zerosum::gpu
