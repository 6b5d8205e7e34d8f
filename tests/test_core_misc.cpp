// CSV export round-trips, crash-handler state, facade lifecycle, and the
// record summary helpers.
#include <gtest/gtest.h>

#include <sstream>
#include <fstream>
#include <cstdio>
#include <thread>
#include <unistd.h>

#include "analysis/table.hpp"
#include "common/error.hpp"
#include "core/csv_export.hpp"
#include "core/records.hpp"
#include "core/signal_handler.hpp"
#include "core/zerosum.hpp"
#include "gpu/simulated.hpp"

namespace zerosum::core {
namespace {

LwpRecord twoSampleRecord() {
  LwpRecord r;
  r.tid = 42;
  r.type = LwpType::kOpenMp;
  LwpSample a;
  a.timeSeconds = 1.0;
  a.state = 'R';
  a.utime = 90;
  a.stime = 10;
  a.utimeDelta = 90;
  a.stimeDelta = 10;
  a.voluntaryCtx = 3;
  a.nonvoluntaryCtx = 1;
  a.minorFaults = 100;
  a.processor = 2;
  const CpuSet cpus = CpuSet::fromList("1-3,7");
  r.addSample(a, cpus);
  LwpSample b = a;
  b.timeSeconds = 2.0;
  b.utime = 170;
  b.utimeDelta = 80;
  b.stime = 25;
  b.stimeDelta = 15;
  b.processor = 3;
  r.addSample(b, cpus);
  return r;
}

TEST(Records, LwpSummaries) {
  const LwpRecord r = twoSampleRecord();
  EXPECT_DOUBLE_EQ(r.avgUtimePerPeriod(), 85.0);
  EXPECT_DOUBLE_EQ(r.avgStimePerPeriod(), 12.5);
  EXPECT_EQ(r.totalUtime(), 170u);
  EXPECT_EQ(r.totalStime(), 25u);
  EXPECT_EQ(r.totalVoluntaryCtx(), 3u);
  EXPECT_EQ(r.totalNonvoluntaryCtx(), 1u);
  EXPECT_EQ(r.observedMigrations(), 1u);
  EXPECT_EQ(r.lastAffinity().toList(), "1-3,7");
  EXPECT_FALSE(r.affinityChanged());
}

TEST(Records, EmptyRecordSafe) {
  const LwpRecord r;
  EXPECT_DOUBLE_EQ(r.avgUtimePerPeriod(), 0.0);
  EXPECT_EQ(r.totalVoluntaryCtx(), 0u);
  EXPECT_EQ(r.observedMigrations(), 0u);
  EXPECT_TRUE(r.lastAffinity().empty());
  EXPECT_FALSE(r.affinityChanged());
}

TEST(Records, AffinityIsKeptAsChangePoints) {
  LwpRecord r;
  LwpSample s;
  const CpuSet one = CpuSet::fromList("1");
  const CpuSet twoThree = CpuSet::fromList("2-3");
  r.addSample(s, one);
  r.addSample(s, one);
  EXPECT_FALSE(r.affinityChanged());
  r.addSample(s, twoThree);
  r.addSample(s, twoThree);
  r.addSample(s, one);
  ASSERT_EQ(r.affinityChanges.size(), 3u);  // one entry per change only
  EXPECT_EQ(r.affinityChanges[1].firstSample, 2u);
  EXPECT_TRUE(r.affinityChanged());
  EXPECT_EQ(r.lastAffinity(), one);
  const std::vector<std::string> expected = {"1", "1", "2-3", "2-3", "1"};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(r.affinityAt(i).toList(), expected[i]) << "sample " << i;
  }
}

TEST(Records, SamplesBeforeFirstAffinityAreEmpty) {
  LwpRecord r;
  r.samples.push_back(LwpSample{});
  r.addSample(LwpSample{}, CpuSet::fromList("4"));
  EXPECT_TRUE(r.affinityAt(0).empty());
  EXPECT_EQ(r.affinityAt(1).toList(), "4");
  EXPECT_TRUE(r.affinityChanged());  // empty -> 4
}

TEST(Records, HwtAverages) {
  HwtRecord r;
  for (double idle : {80.0, 60.0}) {
    HwtSample s;
    s.idlePct = idle;
    s.userPct = 100.0 - idle;
    r.samples.push_back(s);
  }
  EXPECT_DOUBLE_EQ(r.avgIdlePct(), 70.0);
  EXPECT_DOUBLE_EQ(r.avgUserPct(), 30.0);
  EXPECT_DOUBLE_EQ(r.avgSystemPct(), 0.0);
}

TEST(CsvExporter, LwpSeriesRoundTripsThroughTable) {
  std::map<int, LwpRecord> lwps;
  lwps[42] = twoSampleRecord();
  std::ostringstream out;
  CsvExporter::writeLwpSeries(out, lwps);
  const analysis::Table table = analysis::Table::fromCsvText(out.str());
  EXPECT_EQ(table.rowCount(), 2u);
  EXPECT_EQ(table.column("type")[0], "OpenMP");
  EXPECT_EQ(table.column("affinity")[0], "1-3,7");  // quoted comma survived
  EXPECT_DOUBLE_EQ(table.numericColumn("utime_delta")[1], 80.0);
  EXPECT_DOUBLE_EQ(table.numericColumn("processor")[1], 3.0);
}

TEST(CsvExporter, HwtSeries) {
  std::map<std::size_t, HwtRecord> hwts;
  HwtRecord r;
  r.cpu = 5;
  HwtSample s;
  s.timeSeconds = 1.0;
  s.userPct = 64.52;
  s.systemPct = 12.42;
  s.idlePct = 23.06;
  r.samples.push_back(s);
  hwts[5] = r;
  std::ostringstream out;
  CsvExporter::writeHwtSeries(out, hwts);
  const analysis::Table table = analysis::Table::fromCsvText(out.str());
  EXPECT_EQ(table.rowCount(), 1u);
  EXPECT_DOUBLE_EQ(table.numericColumn("cpu")[0], 5.0);
  EXPECT_DOUBLE_EQ(table.numericColumn("user_pct")[0], 64.52);
}

TEST(CsvExporter, MemorySeries) {
  std::vector<MemSample> samples(2);
  samples[0].timeSeconds = 1.0;
  samples[0].memTotalKb = 1000;
  samples[1].timeSeconds = 2.0;
  samples[1].processRssKb = 77;
  std::ostringstream out;
  CsvExporter::writeMemorySeries(out, samples);
  const analysis::Table table = analysis::Table::fromCsvText(out.str());
  EXPECT_EQ(table.rowCount(), 2u);
  EXPECT_DOUBLE_EQ(table.numericColumn("rss_kb")[1], 77.0);
}

TEST(CsvExporter, GpuSeriesQuotesMetricLabels) {
  std::vector<GpuRecord> gpus(1);
  gpus[0].visibleIndex = 0;
  gpu::Sample sample;
  sample[gpu::Metric::kClockGfxMhz] = 1614.691943;
  gpus[0].samples.emplace_back(1.0, sample);
  std::ostringstream out;
  CsvExporter::writeGpuSeries(out, gpus);
  const analysis::Table table = analysis::Table::fromCsvText(out.str());
  EXPECT_EQ(table.rowCount(), 1u);
  EXPECT_EQ(table.column("metric")[0], "Clock Frequency, GLX (MHz)");
  EXPECT_NEAR(table.numericColumn("value")[0], 1614.691943, 1e-6);
}

TEST(CrashHandlers, InstallRemoveIdempotent) {
  EXPECT_FALSE(crashHandlersInstalled());
  installCrashHandlers();
  EXPECT_TRUE(crashHandlersInstalled());
  installCrashHandlers();  // second install is a no-op
  EXPECT_TRUE(crashHandlersInstalled());
  removeCrashHandlers();
  EXPECT_FALSE(crashHandlersInstalled());
  removeCrashHandlers();  // and so is double-removal
}

TEST(Facade, LifecycleAndDoubleInitRejected) {
  EXPECT_FALSE(zerosum::initialized());
  EXPECT_EQ(zerosum::finalize(), "");  // finalize before init is a no-op

  Config cfg;
  cfg.period = std::chrono::milliseconds(20);
  cfg.signalHandler = false;
  cfg.csvExport = false;
  cfg.logPrefix = "/tmp/zs_facade_test";
  auto& session = zerosum::initialize(cfg, {});
  EXPECT_TRUE(zerosum::initialized());
  EXPECT_EQ(zerosum::session(), &session);
  EXPECT_THROW(zerosum::initialize(cfg, {}), StateError);

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const std::string report = zerosum::finalize();
  EXPECT_NE(report.find("Duration of execution"), std::string::npos);
  EXPECT_FALSE(zerosum::initialized());

  // The per-process log file was written.
  const std::string path =
      "/tmp/zs_facade_test.0." + std::to_string(::getpid()) + ".log";
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace zerosum::core
