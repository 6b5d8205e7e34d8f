#include "core/reporter.hpp"

#include <sstream>

#include "common/strings.hpp"
#include "gpu/metrics.hpp"

namespace zerosum::core {

namespace {

std::string lwpTypeLabel(const LwpRecord& record) {
  std::string label = lwpTypeName(record.type);
  if (record.alsoOpenMp) {
    label += ", OpenMP";
  }
  return label;
}

}  // namespace

std::string Reporter::render(const ReportInput& input) {
  std::ostringstream out;
  out << "Duration of execution: "
      << strings::fixed(input.durationSeconds, 3) << " s\n\n";

  out << "Process Summary:\n";
  out << "MPI " << strings::zeroPad(static_cast<std::uint64_t>(
                       input.identity.rank < 0 ? 0 : input.identity.rank), 3)
      << " - PID " << input.identity.pid << " - Node "
      << input.identity.hostname << " - CPUs allowed: ["
      << input.processAffinity.toList() << "]\n\n";

  if (input.lwps != nullptr) {
    out << "LWP (thread) Summary:\n";
    for (const auto& [tid, record] : *input.lwps) {
      out << "LWP " << tid << ": " << lwpTypeLabel(record)
          << " - stime: " << strings::fixed(record.avgStimePerPeriod(), 2)
          << ", utime: " << strings::fixed(record.avgUtimePerPeriod(), 2)
          << ", nv_ctx: " << record.totalNonvoluntaryCtx()
          << ", ctx: " << record.totalVoluntaryCtx() << ", CPUs: ["
          << record.lastAffinity().toList() << "]";
      if (!record.alive) {
        out << " (exited)";
      }
      out << '\n';
    }
    out << '\n';
  }

  if (input.hwts != nullptr) {
    out << renderHwtSection(*input.hwts) << '\n';
  }

  if (input.gpus != nullptr && !input.gpus->empty()) {
    out << renderGpuSection(*input.gpus) << '\n';
  }

  if (input.memory != nullptr && !input.memory->empty()) {
    const MemSample& last = input.memory->back();
    std::uint64_t peakRss = 0;
    for (const auto& s : *input.memory) {
      peakRss = std::max(peakRss, s.processRssKb);
    }
    out << "Memory Summary:\n";
    out << "Node total: " << last.memTotalKb << " kB, available at end: "
        << last.memAvailableKb << " kB\n";
    out << "Process RSS at end: " << last.processRssKb
        << " kB, peak: " << peakRss << " kB\n\n";
  }

  if (!input.findings.empty()) {
    out << "Contention / Configuration Findings:\n"
        << renderFindings(input.findings) << '\n';
  }

  if (input.health != nullptr) {
    out << renderHealthSection(*input.health) << '\n';
  }
  return out.str();
}

std::string Reporter::renderHealthSection(const MonitorHealth& health) {
  std::ostringstream out;
  out << "Monitor health:\n";
  out << "Samples: " << health.samplesTaken << " taken, "
      << health.samplesDegraded << " degraded, " << health.samplesDropped
      << " dropped; loop overruns: " << health.loopOverruns << '\n';
  for (const auto& s : health.subsystems) {
    out << strings::padRight(s.name, 10)
        << (s.quarantined ? "quarantined" : "ok") << " - errors: " << s.errors
        << ", quarantines: " << s.quarantines
        << ", recoveries: " << s.recoveries << ", skipped: " << s.skipped;
    if (!s.lastError.empty()) {
      out << " (last error: " << s.lastError << ")";
    }
    out << '\n';
  }
  return out.str();
}

std::string Reporter::renderLwpTable(const std::map<int, LwpRecord>& lwps) {
  std::ostringstream out;
  out << strings::padRight("LWP", 8) << strings::padRight("Type", 14)
      << strings::padLeft("stime", 8) << strings::padLeft("utime", 9)
      << strings::padLeft("nvctx", 9) << strings::padLeft("ctx", 9)
      << "  CPUs\n";
  for (const auto& [tid, record] : lwps) {
    out << strings::padRight(std::to_string(tid), 8)
        << strings::padRight(
               lwpTypeName(record.type) + (record.alsoOpenMp ? "+" : ""), 14)
        << strings::padLeft(strings::fixed(record.avgStimePerPeriod(), 2), 8)
        << strings::padLeft(strings::fixed(record.avgUtimePerPeriod(), 2), 9)
        << strings::padLeft(std::to_string(record.totalNonvoluntaryCtx()), 9)
        << strings::padLeft(std::to_string(record.totalVoluntaryCtx()), 9)
        << "  " << record.lastAffinity().toList() << '\n';
  }
  return out.str();
}

std::string Reporter::renderHwtSection(
    const std::map<std::size_t, HwtRecord>& hwts) {
  std::ostringstream out;
  out << "Hardware Summary:\n";
  for (const auto& [cpu, record] : hwts) {
    out << "CPU " << strings::zeroPad(cpu, 3)
        << " - idle: " << strings::fixed(record.avgIdlePct(), 2)
        << ", system: " << strings::fixed(record.avgSystemPct(), 2)
        << ", user: " << strings::fixed(record.avgUserPct(), 2) << '\n';
  }
  return out.str();
}

std::string Reporter::renderGpuSection(const std::vector<GpuRecord>& gpus) {
  std::ostringstream out;
  for (const auto& gpu : gpus) {
    out << "GPU " << gpu.visibleIndex << " - (metric: min avg max)";
    if (gpu.physicalIndex != gpu.visibleIndex) {
      out << "  [true device index " << gpu.physicalIndex << "]";
    }
    out << '\n';
    for (const auto& [metric, acc] : gpu.accumulators) {
      out << "  " << strings::padRight(gpu::metricLabel(metric) + ":", 32)
          << strings::fixed(acc.min(), 6) << ' '
          << strings::fixed(acc.mean(), 6) << ' '
          << strings::fixed(acc.max(), 6) << '\n';
    }
  }
  return out.str();
}

}  // namespace zerosum::core
