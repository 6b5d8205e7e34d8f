#include "core/gpu_tracker.hpp"

#include "common/strings.hpp"

namespace zerosum::core {

GpuTracker::GpuTracker(gpu::DeviceList devices, double warnFraction)
    : devices_(std::move(devices)), warnFraction_(warnFraction) {
  records_.reserve(devices_.size());
  for (const auto& device : devices_) {
    GpuRecord record;
    record.visibleIndex = device->visibleIndex();
    record.physicalIndex = device->physicalIndex();
    record.model = device->model();
    records_.push_back(std::move(record));
  }
  inLowMemory_.assign(devices_.size(), false);
}

void GpuTracker::sample(double timeSeconds) {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    gpu::GpuDevice& device = *devices_[i];
    GpuRecord& record = records_[i];

    record.addSample(timeSeconds, device.query());

    const gpu::MemoryInfo mem = device.memoryInfo();
    if (mem.totalBytes == 0) {
      continue;
    }
    const double usedFraction = static_cast<double>(mem.usedBytes) /
                                static_cast<double>(mem.totalBytes);
    const bool low = usedFraction >= warnFraction_;
    if (low && !inLowMemory_[i]) {
      GpuMemoryEvent event;
      event.timeSeconds = timeSeconds;
      event.visibleIndex = record.visibleIndex;
      event.usedFraction = usedFraction;
      event.description = "GPU " + std::to_string(record.visibleIndex) +
                          " VRAM " + strings::fixed(usedFraction * 100.0, 1) +
                          "% used (" + std::to_string(mem.usedBytes) + " of " +
                          std::to_string(mem.totalBytes) + " bytes)";
      events_.push_back(std::move(event));
    }
    inLowMemory_[i] = low;
  }
}

}  // namespace zerosum::core
