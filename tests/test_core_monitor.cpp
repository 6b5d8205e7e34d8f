// MonitorSession end-to-end: simulated Frontier ranks driven in virtual
// time (the machinery behind Tables 1-3), plus live monitoring of this very
// test process through the real /proc.
#include "core/monitor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <fstream>
#include <cstdio>

#include "common/error.hpp"
#include "openmp/team.hpp"
#include "openmp/ompt.hpp"
#include "gpu/simulated.hpp"
#include "procfs/simfs.hpp"
#include "sim/workload.hpp"
#include "topology/presets.hpp"

namespace zerosum::core {
namespace {

using namespace std::chrono_literals;

Config simConfig() {
  Config cfg;
  cfg.period = std::chrono::milliseconds(1000);
  cfg.jiffyHz = sim::kHz;
  cfg.signalHandler = false;
  return cfg;
}

/// Runs one simulated miniQMC rank to completion under manual sampling;
/// returns the session for inspection.
struct SimRun {
  std::unique_ptr<sim::SimNode> node;
  std::unique_ptr<MonitorSession> session;
  sim::BuiltRank rank;
  double seconds = 0.0;
};

SimRun runSimulatedRank(const sim::MiniQmcConfig& qmc,
                        const CpuSet& processCpus, Config cfg) {
  SimRun run;
  run.node = std::make_unique<sim::SimNode>(CpuSet::fromList("0-15"),
                                            64ULL << 30);
  run.rank = sim::buildMiniQmcRank(*run.node, processCpus, qmc,
                                   run.node->hwts());
  ProcessIdentity identity;
  identity.rank = 0;
  identity.pid = run.rank.pid;
  identity.hostname = "simnode";
  run.session = std::make_unique<MonitorSession>(
      cfg, procfs::makeSimProcFs(*run.node, run.rank.pid), identity);
  while (!run.node->processFinished(run.rank.pid) &&
         run.node->nowSeconds() < 600.0) {
    run.node->advance(sim::kHz);
    run.session->sampleNow(run.node->nowSeconds());
  }
  run.seconds = run.node->nowSeconds();
  return run;
}

TEST(MonitorSession, RequiresProvider) {
  EXPECT_THROW(MonitorSession(simConfig(), nullptr), ConfigError);
}

TEST(MonitorSession, AutodetectsIdentityFromProvider) {
  sim::SimNode node(CpuSet::fromList("0-3"), 4ULL << 30);
  const sim::Pid pid = node.spawnProcess("app", CpuSet::fromList("1-2"));
  sim::Behavior b;
  b.iterations = 1;
  b.iterWorkJiffies = 10;
  node.spawnTask(pid, "app", LwpType::kMain, b);
  MonitorSession session(simConfig(), procfs::makeSimProcFs(node));
  EXPECT_EQ(session.identity().pid, pid);
  EXPECT_EQ(session.processAffinity().toList(), "1-2");
}

TEST(MonitorSession, ContendedRankShowsTable1Signature) {
  // srun -n8 default: whole 8-thread team time-slices one core.
  sim::MiniQmcConfig qmc;
  qmc.ompThreads = 8;
  qmc.steps = 40;
  qmc.workPerStep = 10;
  SimRun run = runSimulatedRank(qmc, CpuSet::fromList("1"), simConfig());

  const auto& lwps = run.session->lwps().records();
  // 8 team threads + other + zerosum.
  EXPECT_EQ(lwps.size(), 10u);

  // Per-thread utime is a small share of each period (paper: ~13/100).
  const auto& main = lwps.at(run.rank.mainTid);
  EXPECT_LT(main.avgUtimePerPeriod() + main.avgStimePerPeriod(), 30.0);
  // Non-voluntary context switches pile up.
  EXPECT_GT(main.totalNonvoluntaryCtx(), 50u);

  // The analyzer calls it.
  const auto findings = run.session->analyze();
  bool oversubscribed = false;
  for (const auto& f : findings) {
    oversubscribed = oversubscribed || f.code == "oversubscribed-hwt";
  }
  EXPECT_TRUE(oversubscribed) << renderFindings(findings);
}

TEST(MonitorSession, BoundRankShowsTable3Signature) {
  // -c7 + spread binding: one thread per core, nvctx ~ 0 except the thread
  // sharing the monitor's core.
  sim::MiniQmcConfig qmc;
  qmc.ompThreads = 7;
  qmc.steps = 40;
  qmc.workPerStep = 10;
  qmc.threadBinding = {
      CpuSet::fromList("1"), CpuSet::fromList("2"), CpuSet::fromList("3"),
      CpuSet::fromList("4"), CpuSet::fromList("5"), CpuSet::fromList("6"),
      CpuSet::fromList("7")};
  SimRun run = runSimulatedRank(qmc, CpuSet::fromList("1-7"), simConfig());

  const auto& lwps = run.session->lwps().records();
  const auto& main = lwps.at(run.rank.mainTid);
  // High utilization per thread.
  EXPECT_GT(main.avgUtimePerPeriod() + main.avgStimePerPeriod(), 60.0);
  EXPECT_LT(main.totalNonvoluntaryCtx(), 5u);
  // Workers on cores 2-6 are contention-free; the core-7 worker shares
  // with the ZeroSum thread and shows the only nonzero nvctx.
  std::uint64_t nvctxOnCore7 = 0;
  std::uint64_t nvctxElsewhere = 0;
  for (sim::Tid tid : run.rank.ompTids) {
    const auto& record = lwps.at(tid);
    if (record.lastAffinity().test(7)) {
      nvctxOnCore7 += record.totalNonvoluntaryCtx();
    } else {
      nvctxElsewhere += record.totalNonvoluntaryCtx();
    }
  }
  EXPECT_GT(nvctxOnCore7, 0u);
  EXPECT_EQ(nvctxElsewhere, 0u);

  const auto findings = run.session->analyze();
  bool collision = false;
  for (const auto& f : findings) {
    collision = collision || f.code == "monitor-collision";
  }
  EXPECT_TRUE(collision) << renderFindings(findings);
}

TEST(MonitorSession, ContendedConfigurationRunsLonger) {
  sim::MiniQmcConfig qmc;
  qmc.ompThreads = 8;
  qmc.steps = 20;
  qmc.workPerStep = 10;
  SimRun contended = runSimulatedRank(qmc, CpuSet::fromList("1"), simConfig());

  sim::MiniQmcConfig bound = qmc;
  bound.ompThreads = 7;
  bound.threadBinding = {
      CpuSet::fromList("1"), CpuSet::fromList("2"), CpuSet::fromList("3"),
      CpuSet::fromList("4"), CpuSet::fromList("5"), CpuSet::fromList("6"),
      CpuSet::fromList("7")};
  SimRun fast = runSimulatedRank(bound, CpuSet::fromList("1-7"), simConfig());

  EXPECT_GT(contended.seconds, 2.0 * fast.seconds);
}

TEST(MonitorSession, HwtReportLimitedToProcessAffinity) {
  sim::MiniQmcConfig qmc;
  qmc.ompThreads = 2;
  qmc.steps = 5;
  qmc.workPerStep = 5;
  SimRun run = runSimulatedRank(qmc, CpuSet::fromList("1-2"), simConfig());
  for (const auto& [cpu, record] : run.session->hwts().records()) {
    EXPECT_TRUE(cpu == 1 || cpu == 2) << cpu;
  }
}

TEST(MonitorSession, ReportContainsAllSections) {
  sim::MiniQmcConfig qmc;
  qmc.ompThreads = 2;
  qmc.steps = 5;
  qmc.workPerStep = 5;
  SimRun run = runSimulatedRank(qmc, CpuSet::fromList("1-2"), simConfig());
  const std::string report = run.session->report();
  EXPECT_NE(report.find("Duration of execution:"), std::string::npos);
  EXPECT_NE(report.find("Node simnode"), std::string::npos);
  EXPECT_NE(report.find("LWP (thread) Summary:"), std::string::npos);
  EXPECT_NE(report.find("Hardware Summary:"), std::string::npos);
  EXPECT_NE(report.find("Memory Summary:"), std::string::npos);
}

TEST(MonitorSession, WriteLogIncludesCsvSections) {
  sim::MiniQmcConfig qmc;
  qmc.ompThreads = 2;
  qmc.steps = 5;
  qmc.workPerStep = 5;
  SimRun run = runSimulatedRank(qmc, CpuSet::fromList("1-2"), simConfig());
  std::ostringstream log;
  run.session->writeLog(log);
  const std::string text = log.str();
  EXPECT_NE(text.find("=== CSV: LWP time series ==="), std::string::npos);
  EXPECT_NE(text.find("=== CSV: HWT time series ==="), std::string::npos);
  EXPECT_NE(text.find("=== CSV: memory time series ==="), std::string::npos);
}

TEST(MonitorSession, CsvDisabledOmitsSections) {
  Config cfg = simConfig();
  cfg.csvExport = false;
  sim::MiniQmcConfig qmc;
  qmc.ompThreads = 2;
  qmc.steps = 3;
  qmc.workPerStep = 5;
  SimRun run = runSimulatedRank(qmc, CpuSet::fromList("1-2"), cfg);
  std::ostringstream log;
  run.session->writeLog(log);
  EXPECT_EQ(log.str().find("=== CSV"), std::string::npos);
}

TEST(MonitorSession, GpuDevicesSampled) {
  sim::SimNode node(CpuSet::fromList("0-3"), 4ULL << 30);
  const sim::Pid pid = node.spawnProcess("app", CpuSet::fromList("0-1"));
  sim::Behavior b;
  b.iterations = 3;
  b.iterWorkJiffies = 50;
  node.spawnTask(pid, "app", LwpType::kMain, b);

  auto device = std::make_shared<gpu::SimulatedGpu>(0, 4, "gcd");
  MonitorSession session(simConfig(), procfs::makeSimProcFs(node), {},
                         {device});
  for (int i = 1; i <= 3; ++i) {
    device->setActivity(0.5);
    device->advance(1.0);
    node.advance(sim::kHz);
    session.sampleNow(i);
  }
  ASSERT_EQ(session.gpus().records().size(), 1u);
  const auto& record = session.gpus().records().front();
  EXPECT_EQ(record.accumulators.at(gpu::Metric::kDeviceBusyPct).count(), 3u);
  const std::string report = session.report();
  EXPECT_NE(report.find("GPU 0 - (metric: min avg max)"), std::string::npos);
}

TEST(MonitorSession, HistoryBytesCoversEveryTracker) {
  sim::SimNode node(CpuSet::fromList("0-3"), 4ULL << 30);
  const sim::Pid pid = node.spawnProcess("app", CpuSet::fromList("0-1"));
  sim::Behavior b;
  b.iterations = 10;
  b.iterWorkJiffies = 50;
  node.spawnTask(pid, "app", LwpType::kMain, b);
  node.spawnTask(pid, "worker", LwpType::kOther, b);

  auto device = std::make_shared<gpu::SimulatedGpu>(0, 0, "gcd");
  MonitorSession session(simConfig(), procfs::makeSimProcFs(node), {},
                         {device});
  EXPECT_EQ(session.historyBytes(), 0u);
  for (int i = 1; i <= 4; ++i) {
    device->advance(1.0);
    node.advance(sim::kHz);
    session.sampleNow(i);
  }
  // A lower bound from the sizes alone: capacities are at least the
  // sample counts.
  std::size_t floor = session.healthSeries().size() * sizeof(HealthSample) +
                      session.memory().samples().size() * sizeof(MemSample);
  for (const auto& [tid, record] : session.lwps().records()) {
    floor += record.samples.size() * sizeof(LwpSample) +
             record.affinityChanges.size() * sizeof(AffinityChange);
  }
  for (const auto& [cpu, record] : session.hwts().records()) {
    floor += record.samples.size() * sizeof(HwtSample);
  }
  for (const auto& record : session.gpus().records()) {
    floor += record.samples.size() * sizeof(record.samples.front());
  }
  const std::size_t afterFour = session.historyBytes();
  EXPECT_GE(afterFour, floor);
  EXPECT_LT(afterFour, 2 * floor);  // doubling growth at most
  for (int i = 5; i <= 40; ++i) {
    device->advance(1.0);
    node.advance(sim::kHz);
    session.sampleNow(i);
  }
  EXPECT_GT(session.historyBytes(), afterFour);
}

TEST(MonitorSession, CommRecorderExportedInLog) {
  sim::SimNode node(CpuSet::fromList("0"), 1ULL << 30);
  const sim::Pid pid = node.spawnProcess("app", CpuSet{});
  sim::Behavior b;
  b.iterations = 1;
  b.iterWorkJiffies = 5;
  node.spawnTask(pid, "app", LwpType::kMain, b);
  mpisim::Recorder recorder(0);
  recorder.recordSend(1, 1024);
  MonitorSession session(simConfig(), procfs::makeSimProcFs(node));
  session.attachCommRecorder(&recorder);
  node.advance(sim::kHz);
  session.sampleNow(1.0);
  std::ostringstream log;
  session.writeLog(log);
  EXPECT_NE(log.str().find("=== CSV: MPI point-to-point ==="),
            std::string::npos);
  EXPECT_NE(log.str().find("send,1,1024,1"), std::string::npos);
}

TEST(MonitorSession, ManualAndAsyncModesExclusive) {
  sim::SimNode node(CpuSet::fromList("0"), 1ULL << 30);
  const sim::Pid pid = node.spawnProcess("app", CpuSet{});
  sim::Behavior b;
  b.iterations = 1;
  b.iterWorkJiffies = 5;
  node.spawnTask(pid, "app", LwpType::kMain, b);
  MonitorSession session(simConfig(), procfs::makeSimProcFs(node));
  session.sampleNow(1.0);
  EXPECT_THROW(session.start(), StateError);
}

// --- Live monitoring of this very process --------------------------------

TEST(MonitorSessionReal, AsyncMonitorSamplesSelf) {
  Config cfg;
  cfg.period = 30ms;
  cfg.signalHandler = false;
  cfg.jiffyHz = static_cast<std::uint64_t>(::sysconf(_SC_CLK_TCK));
  MonitorSession session(cfg, procfs::makeRealProcFs());

  // A busy worker thread the monitor should discover via /proc scanning.
  std::atomic<bool> stop{false};
  std::thread worker([&stop] {
    volatile double sink = 0.0;
    while (!stop.load()) {
      for (int i = 0; i < 10000; ++i) {
        sink = sink + static_cast<double>(i) * 1e-9;
      }
    }
  });

  session.start();
  std::this_thread::sleep_for(200ms);
  session.stop();
  stop.store(true);
  worker.join();

  EXPECT_FALSE(session.running());
  EXPECT_GT(session.durationSeconds(), 0.1);
  // Main thread + worker + monitor thread at minimum.
  EXPECT_GE(session.lwps().records().size(), 3u);
  EXPECT_NE(session.monitorTid(), 0);
  // The monitor classified its own thread.
  const auto it = session.lwps().records().find(session.monitorTid());
  ASSERT_NE(it, session.lwps().records().end());
  EXPECT_EQ(it->second.type, LwpType::kZeroSum);
  // Memory was sampled.
  EXPECT_FALSE(session.memory().samples().empty());
  // A report renders.
  EXPECT_NE(session.report().find("Duration of execution"),
            std::string::npos);
}

TEST(MonitorSessionReal, ThreadNamesDriveClassification) {
  // The openmp substrate names its workers "omp-worker-N" and the monitor
  // names itself "zerosum"; the /proc comm field then classifies both
  // without OMPT hints — the name-heuristic path real systems rely on.
  Config cfg;
  cfg.period = 25ms;
  cfg.signalHandler = false;
  openmp::ToolRegistry::instance().resetForTesting();  // no OMPT help
  MonitorSession session(cfg, procfs::makeRealProcFs());
  session.start();
  {
    openmp::ThreadTeam team(3);
    std::atomic<bool> stop{false};
    std::thread spinner;  // keep workers alive across several samples
    team.parallel([&](int threadNum, int) {
      if (threadNum == 0) {
        std::this_thread::sleep_for(120ms);
        stop.store(true);
      } else {
        volatile double sink = 0.0;
        while (!stop.load()) {
          sink = sink + 1.0;
        }
      }
    });
  }
  session.stop();

  int ompSeen = 0;
  int zerosumSeen = 0;
  for (const auto& [tid, record] : session.lwps().records()) {
    if (record.type == LwpType::kOpenMp) {
      ++ompSeen;
      EXPECT_NE(record.name.find("omp-worker"), std::string::npos);
    }
    if (record.type == LwpType::kZeroSum) {
      ++zerosumSeen;
      EXPECT_EQ(record.name, "zerosum");
    }
  }
  EXPECT_GE(ompSeen, 2);
  EXPECT_EQ(zerosumSeen, 1);
}

TEST(MonitorSessionReal, StopIsIdempotentAndRestartForbidden) {
  Config cfg;
  cfg.period = 20ms;
  cfg.signalHandler = false;
  MonitorSession session(cfg, procfs::makeRealProcFs());
  session.start();
  EXPECT_THROW(session.start(), StateError);
  session.stop();
  session.stop();  // no-op
  EXPECT_THROW(session.sampleNow(1.0), StateError);
}

TEST(MonitorSessionReal, WriteLogFileCreatesFile) {
  Config cfg;
  cfg.period = 20ms;
  cfg.signalHandler = false;
  cfg.logPrefix = "/tmp/zs_test_log";
  MonitorSession session(cfg, procfs::makeRealProcFs());
  session.start();
  std::this_thread::sleep_for(50ms);
  session.stop();
  const std::string path = session.writeLogFile();
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::string firstLine;
  std::getline(in, firstLine);
  EXPECT_NE(firstLine.find("Duration of execution"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MonitorSessionReal, VirtualPacerDrivesAsyncThread) {
  // The async thread with a virtual pacer: three periods, then done.
  Config cfg;
  cfg.signalHandler = false;
  MonitorSession session(cfg, procfs::makeRealProcFs());
  std::atomic<int> periods{0};
  session.start(std::make_unique<VirtualPacer>(
      [&periods](std::chrono::milliseconds) { return ++periods < 3; }));
  while (periods.load() < 3) {
    std::this_thread::sleep_for(1ms);
  }
  session.stop();
  EXPECT_GE(session.lwps().records().size(), 1u);
}

}  // namespace
}  // namespace zerosum::core
