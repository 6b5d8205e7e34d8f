// GPU metric enumeration.
//
// The set matches what the paper's tool samples through ROCm SMI on
// Frontier (Listing 2), which is a superset of what it reads from NVML and
// the SYCL API on the other platforms.  Every metric is a double; the
// monitor accumulates min/avg/max per metric over the run.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace zerosum::gpu {

enum class Metric : std::uint8_t {
  kClockGfxMhz = 0,      ///< "Clock Frequency, GLX (MHz)"
  kClockSocMhz,          ///< "Clock Frequency, SOC (MHz)"
  kDeviceBusyPct,        ///< "Device Busy %"
  kEnergyAverageJ,       ///< "Energy Average (J)" per sampling interval
  kGfxActivity,          ///< "GFX Activity" (raw activity counter delta)
  kGfxActivityPct,       ///< "GFX Activity %"
  kMemoryActivity,       ///< "Memory Activity"
  kMemoryBusyPct,        ///< "Memory Busy %"
  kMemoryControllerActivity,  ///< "Memory Controller Activity"
  kPowerAverageW,        ///< "Power Average (W)"
  kTemperatureC,         ///< "Temperature (C)"
  kVcnActivity,          ///< "UVD|VCN Activity"
  kUsedGttBytes,         ///< "Used GTT Bytes"
  kUsedVramBytes,        ///< "Used VRAM Bytes"
  kUsedVisibleVramBytes, ///< "Used Visible VRAM Bytes"
  kVoltageMv,            ///< "Voltage (mV)"
};

inline constexpr std::array<Metric, 16> kAllMetrics = {
    Metric::kClockGfxMhz,
    Metric::kClockSocMhz,
    Metric::kDeviceBusyPct,
    Metric::kEnergyAverageJ,
    Metric::kGfxActivity,
    Metric::kGfxActivityPct,
    Metric::kMemoryActivity,
    Metric::kMemoryBusyPct,
    Metric::kMemoryControllerActivity,
    Metric::kPowerAverageW,
    Metric::kTemperatureC,
    Metric::kVcnActivity,
    Metric::kUsedGttBytes,
    Metric::kUsedVramBytes,
    Metric::kUsedVisibleVramBytes,
    Metric::kVoltageMv,
};

/// Report label, exactly as Listing 2 prints it.
std::string metricLabel(Metric metric);

/// A value per metric, stored densely over the enum with one presence
/// bit per metric: what a device reported in one query (Sample) or what
/// the monitor has accumulated per metric.  Absent metrics hold T{}.
/// Iteration visits the present (metric, value) pairs in enum order, so
/// everything rendered from it (CSV rows, publisher batches, report rows)
/// comes out in the order Listing 2 prints.  Fixed size, no heap: a
/// period's history entry costs sizeof(MetricArray<double>), not one tree
/// node per metric.
template <typename T>
class MetricArray {
 public:
  static constexpr std::size_t kCapacity = kAllMetrics.size();
  using Mask = std::uint16_t;
  static_assert(kCapacity <= 16, "presence mask is 16 bits");

  [[nodiscard]] static constexpr Mask bit(Metric metric) {
    return static_cast<Mask>(1U << static_cast<unsigned>(metric));
  }

  /// The slot for `metric`, marked present (as std::map::operator[]).
  T& operator[](Metric metric) {
    mask_ = static_cast<Mask>(mask_ | bit(metric));
    return values_[static_cast<std::size_t>(metric)];
  }
  /// Throws std::out_of_range when `metric` is absent.
  [[nodiscard]] const T& at(Metric metric) const {
    if (count(metric) == 0) {
      throw std::out_of_range("MetricArray::at: metric absent");
    }
    return values_[static_cast<std::size_t>(metric)];
  }
  [[nodiscard]] std::size_t count(Metric metric) const {
    return (mask_ & bit(metric)) != 0 ? 1 : 0;
  }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(std::popcount(mask_));
  }
  [[nodiscard]] bool empty() const { return mask_ == 0; }

  /// Drops every metric outside `keep`, resetting its slot to T{}.
  void retain(Mask keep) {
    for (std::size_t i = 0; i < kCapacity; ++i) {
      if ((keep & (1U << i)) == 0) {
        values_[i] = T{};
      }
    }
    mask_ = static_cast<Mask>(mask_ & keep);
  }

  class const_iterator {
   public:
    using value_type = std::pair<Metric, const T&>;

    const_iterator(const MetricArray* owner, unsigned index)
        : owner_(owner), index_(index) {
      skipAbsent();
    }
    value_type operator*() const {
      return {static_cast<Metric>(index_), owner_->values_[index_]};
    }
    const_iterator& operator++() {
      ++index_;
      skipAbsent();
      return *this;
    }
    bool operator==(const const_iterator& o) const {
      return index_ == o.index_;
    }

   private:
    void skipAbsent() {
      while (index_ < kCapacity && (owner_->mask_ & (1U << index_)) == 0) {
        ++index_;
      }
    }
    const MetricArray* owner_;
    unsigned index_;
  };

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const {
    return {this, static_cast<unsigned>(kCapacity)};
  }

  bool operator==(const MetricArray&) const = default;

 private:
  std::array<T, kCapacity> values_{};
  Mask mask_ = 0;
};

/// One sample: the instantaneous value of each metric the device reported.
using Sample = MetricArray<double>;

/// The management libraries the paper integrates with (§3.4): ROCm SMI on
/// Frontier, NVML on Summit/Perlmutter, the Intel SYCL device API on the
/// Xe test system.  Each exposes a different subset of the metric space;
/// the monitor's pipeline is identical regardless.
enum class Vendor { kRocmSmi, kNvml, kSycl };

std::string vendorName(Vendor vendor);

/// Metrics a vendor's library reports.  ROCm SMI is the full Listing-2
/// set; NVML lacks the raw activity counters and GTT; the SYCL API only
/// reports memory and clocks.
std::vector<Metric> vendorMetrics(Vendor vendor);

}  // namespace zerosum::gpu
