#include "core/csv_export.hpp"

#include "common/strings.hpp"
#include "gpu/metrics.hpp"

namespace zerosum::core {

void CsvExporter::writeLwpSeries(std::ostream& out,
                                 const std::map<int, LwpRecord>& lwps) {
  out << "time,tid,type,state,utime,stime,utime_delta,stime_delta,vctx,"
         "nvctx,minflt,majflt,processor,affinity\n";
  for (const auto& [tid, record] : lwps) {
    for (std::size_t i = 0; i < record.samples.size(); ++i) {
      const LwpSample& s = record.samples[i];
      out << strings::fixed(s.timeSeconds, 3) << ',' << tid << ','
          << lwpTypeName(record.type) << ',' << s.state << ',' << s.utime
          << ',' << s.stime << ',' << s.utimeDelta << ',' << s.stimeDelta
          << ',' << s.voluntaryCtx << ',' << s.nonvoluntaryCtx << ','
          << s.minorFaults << ',' << s.majorFaults << ',' << s.processor
          << ",\"" << record.affinityAt(i).toList() << "\"\n";
    }
  }
}

void CsvExporter::writeHwtSeries(std::ostream& out,
                                 const std::map<std::size_t, HwtRecord>& hwts) {
  out << "time,cpu,user_pct,system_pct,idle_pct\n";
  for (const auto& [cpu, record] : hwts) {
    for (const auto& s : record.samples) {
      out << strings::fixed(s.timeSeconds, 3) << ',' << cpu << ','
          << strings::fixed(s.userPct, 2) << ','
          << strings::fixed(s.systemPct, 2) << ','
          << strings::fixed(s.idlePct, 2) << '\n';
    }
  }
}

void CsvExporter::writeMemorySeries(std::ostream& out,
                                    const std::vector<MemSample>& samples) {
  out << "time,mem_total_kb,mem_free_kb,mem_available_kb,rss_kb,hwm_kb\n";
  for (const auto& s : samples) {
    out << strings::fixed(s.timeSeconds, 3) << ',' << s.memTotalKb << ','
        << s.memFreeKb << ',' << s.memAvailableKb << ',' << s.processRssKb
        << ',' << s.processHwmKb << '\n';
  }
}

void CsvExporter::writeGpuSeries(std::ostream& out,
                                 const std::vector<GpuRecord>& gpus) {
  out << "time,gpu,metric,value\n";
  for (const auto& gpu : gpus) {
    for (const auto& [time, sample] : gpu.samples) {
      for (const auto& [metric, value] : sample) {
        out << strings::fixed(time, 3) << ',' << gpu.visibleIndex << ",\""
            << gpu::metricLabel(metric) << "\"," << strings::fixed(value, 6)
            << '\n';
      }
    }
  }
}

void CsvExporter::writeCommSeries(std::ostream& out,
                                  const mpisim::Recorder& recorder) {
  out << recorder.toCsv();
}

void CsvExporter::writeHealthSeries(std::ostream& out,
                                    const std::vector<HealthSample>& samples) {
  out << "time,samples_taken,samples_degraded,samples_dropped,loop_overruns,"
         "subsystems_quarantined,quarantines,recoveries,"
         "agg_records_coarsened,agg_degrade_transitions,"
         "agg_records_dropped,agg_degrade_stage,agg_acked_pressure,"
         "agg_fanin_direct,agg_fanin_forwarded,agg_fanin_max_hops\n";
  for (const auto& s : samples) {
    out << strings::fixed(s.timeSeconds, 3) << ',' << s.samplesTaken << ','
        << s.samplesDegraded << ',' << s.samplesDropped << ','
        << s.loopOverruns << ',' << s.subsystemsQuarantined << ','
        << s.quarantines << ',' << s.recoveries << ','
        << s.aggRecordsCoarsened << ',' << s.aggDegradeTransitions << ','
        << s.aggRecordsDropped << ',' << s.aggDegradeStage << ','
        << s.aggAckedPressure << ',' << s.aggFaninDirect << ','
        << s.aggFaninForwarded << ',' << s.aggFaninMaxHops << '\n';
  }
}

}  // namespace zerosum::core
