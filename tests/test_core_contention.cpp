#include "core/contention.hpp"

#include <gtest/gtest.h>

#include "topology/presets.hpp"

namespace zerosum::core {
namespace {

/// Builds an LWP record with uniform per-period behaviour.
LwpRecord makeRecord(int tid, LwpType type, const std::string& affinity,
                     double busyJiffiesPerPeriod, std::uint64_t nvctxTotal,
                     int periods = 10, double stimeShare = 0.05) {
  LwpRecord record;
  record.tid = tid;
  record.type = type;
  std::uint64_t utime = 0;
  std::uint64_t stime = 0;
  for (int i = 1; i <= periods; ++i) {
    LwpSample s;
    s.timeSeconds = i;
    const auto stimeDelta =
        static_cast<std::uint64_t>(busyJiffiesPerPeriod * stimeShare);
    const auto utimeDelta =
        static_cast<std::uint64_t>(busyJiffiesPerPeriod) - stimeDelta;
    utime += utimeDelta;
    stime += stimeDelta;
    s.utime = utime;
    s.stime = stime;
    s.utimeDelta = utimeDelta;
    s.stimeDelta = stimeDelta;
    s.nonvoluntaryCtx =
        nvctxTotal * static_cast<std::uint64_t>(i) /
        static_cast<std::uint64_t>(periods);
    s.voluntaryCtx = 10;
    const CpuSet cpus = CpuSet::fromList(affinity);
    s.processor = static_cast<int>(cpus.first());
    record.addSample(s, cpus);
  }
  return record;
}

HwtRecord makeHwt(std::size_t cpu, double idlePct, int periods = 10) {
  HwtRecord record;
  record.cpu = cpu;
  for (int i = 1; i <= periods; ++i) {
    HwtSample s;
    s.timeSeconds = i;
    s.idlePct = idlePct;
    s.userPct = (100.0 - idlePct) * 0.9;
    s.systemPct = (100.0 - idlePct) * 0.1;
    record.samples.push_back(s);
  }
  return record;
}

constexpr double kJpp = 100.0;  // jiffies per period
constexpr double kDuration = 10.0;

TEST(ContentionAnalyzer, CleanRunHasNoFindings) {
  std::map<int, LwpRecord> lwps;
  lwps[1] = makeRecord(1, LwpType::kMain, "1", 95, 0);
  lwps[2] = makeRecord(2, LwpType::kOpenMp, "2", 95, 1);
  std::map<std::size_t, HwtRecord> hwts;
  hwts[1] = makeHwt(1, 5.0);
  hwts[2] = makeHwt(2, 5.0);
  ContentionAnalyzer analyzer;
  const auto findings = analyzer.analyze(lwps, hwts,
                                         CpuSet::fromList("1-2"), kJpp,
                                         kDuration);
  EXPECT_TRUE(findings.empty()) << renderFindings(findings);
}

TEST(ContentionAnalyzer, OversubscribedHwtDetected) {
  // Table 1's pathology: many busy threads pinned to one core.
  std::map<int, LwpRecord> lwps;
  for (int tid = 1; tid <= 8; ++tid) {
    lwps[tid] = makeRecord(tid, LwpType::kOpenMp, "1", 12, 40000);
  }
  std::map<std::size_t, HwtRecord> hwts;
  hwts[1] = makeHwt(1, 0.0);
  ContentionAnalyzer::Params params;
  params.busyFraction = 0.10;
  ContentionAnalyzer analyzer(params);
  const auto findings =
      analyzer.analyze(lwps, hwts, CpuSet::fromList("1"), kJpp, kDuration);
  bool found = false;
  for (const auto& f : findings) {
    if (f.code == "oversubscribed-hwt") {
      found = true;
      EXPECT_EQ(f.severity, Severity::kCritical);
      EXPECT_EQ(f.tids.size(), 8u);
    }
  }
  EXPECT_TRUE(found) << renderFindings(findings);
}

TEST(ContentionAnalyzer, HighNvctxRateDetected) {
  std::map<int, LwpRecord> lwps;
  lwps[1] = makeRecord(1, LwpType::kMain, "1", 90, 5000);
  std::map<std::size_t, HwtRecord> hwts;
  const auto findings = ContentionAnalyzer().analyze(
      lwps, hwts, CpuSet::fromList("1"), kJpp, kDuration);
  ASSERT_FALSE(findings.empty());
  bool found = false;
  for (const auto& f : findings) {
    found = found || f.code == "high-nvctx-rate";
  }
  EXPECT_TRUE(found);
}

TEST(ContentionAnalyzer, LowNvctxRateIgnored) {
  std::map<int, LwpRecord> lwps;
  lwps[1] = makeRecord(1, LwpType::kMain, "1", 90, 5);  // 0.5/s
  std::map<std::size_t, HwtRecord> hwts;
  const auto findings = ContentionAnalyzer().analyze(
      lwps, hwts, CpuSet::fromList("1"), kJpp, kDuration);
  for (const auto& f : findings) {
    EXPECT_NE(f.code, "high-nvctx-rate");
  }
}

TEST(ContentionAnalyzer, SyscallHeavyThreadDetected) {
  std::map<int, LwpRecord> lwps;
  lwps[1] = makeRecord(1, LwpType::kMain, "1", 90, 0, 10, /*stime=*/0.5);
  std::map<std::size_t, HwtRecord> hwts;
  const auto findings = ContentionAnalyzer().analyze(
      lwps, hwts, CpuSet::fromList("1"), kJpp, kDuration);
  bool found = false;
  for (const auto& f : findings) {
    found = found || f.code == "high-system-time";
  }
  EXPECT_TRUE(found);
}

TEST(ContentionAnalyzer, UndersubscriptionPairedWithOversubscription) {
  // Threads pile on HWT 1 while HWTs 2-7 idle: both findings fire.
  std::map<int, LwpRecord> lwps;
  for (int tid = 1; tid <= 4; ++tid) {
    lwps[tid] = makeRecord(tid, LwpType::kOpenMp, "1", 25, 30000);
  }
  std::map<std::size_t, HwtRecord> hwts;
  hwts[1] = makeHwt(1, 0.0);
  for (std::size_t cpu = 2; cpu <= 7; ++cpu) {
    hwts[cpu] = makeHwt(cpu, 99.8);
  }
  const auto findings = ContentionAnalyzer().analyze(
      lwps, hwts, CpuSet::fromList("1-7"), kJpp, kDuration);
  bool under = false;
  for (const auto& f : findings) {
    under = under || f.code == "undersubscribed-allocation";
  }
  EXPECT_TRUE(under) << renderFindings(findings);
}

TEST(ContentionAnalyzer, MonitorCollisionDetected) {
  // Table 3's last row: the OpenMP thread sharing core 7 with ZeroSum.
  std::map<int, LwpRecord> lwps;
  lwps[1] = makeRecord(1, LwpType::kOpenMp, "7", 95, 208);
  lwps[2] = makeRecord(2, LwpType::kZeroSum, "7", 2, 2);
  std::map<std::size_t, HwtRecord> hwts;
  const auto findings = ContentionAnalyzer().analyze(
      lwps, hwts, CpuSet::fromList("1-7"), kJpp, kDuration);
  bool found = false;
  for (const auto& f : findings) {
    if (f.code == "monitor-collision") {
      found = true;
      EXPECT_NE(f.message.find("ZS_ASYNC_CORE"), std::string::npos);
    }
  }
  EXPECT_TRUE(found) << renderFindings(findings);
}

TEST(ContentionAnalyzer, UnboundMigratingThreadNoted) {
  std::map<int, LwpRecord> lwps;
  LwpRecord r = makeRecord(1, LwpType::kOpenMp, "1-7", 90, 9);
  // Fake a migration: change the processor between samples.
  r.samples[3].processor = 5;
  lwps[1] = std::move(r);
  std::map<std::size_t, HwtRecord> hwts;
  const auto findings = ContentionAnalyzer().analyze(
      lwps, hwts, CpuSet::fromList("1-7"), kJpp, kDuration);
  bool found = false;
  for (const auto& f : findings) {
    found = found || f.code == "unbound-thread-migrated";
  }
  EXPECT_TRUE(found) << renderFindings(findings);
}

TEST(ContentionAnalyzer, FindingsSortedBySeverity) {
  std::map<int, LwpRecord> lwps;
  for (int tid = 1; tid <= 4; ++tid) {
    lwps[tid] = makeRecord(tid, LwpType::kOpenMp, "1-7", 30, 8000);
    lwps[tid].samples[2].processor = tid;  // migrations too
  }
  std::map<std::size_t, HwtRecord> hwts;
  const auto findings = ContentionAnalyzer().analyze(
      lwps, hwts, CpuSet::fromList("1-7"), kJpp, kDuration);
  for (std::size_t i = 1; i < findings.size(); ++i) {
    EXPECT_GE(static_cast<int>(findings[i - 1].severity),
              static_cast<int>(findings[i].severity));
  }
}

TEST(ContentionAnalyzer, ZeroDurationIsSafe) {
  std::map<int, LwpRecord> lwps;
  std::map<std::size_t, HwtRecord> hwts;
  EXPECT_TRUE(ContentionAnalyzer()
                  .analyze(lwps, hwts, CpuSet{}, kJpp, 0.0)
                  .empty());
}

TEST(RenderFindings, EmptyAndNonEmpty) {
  EXPECT_NE(renderFindings({}).find("healthy"), std::string::npos);
  Finding f;
  f.severity = Severity::kCritical;
  f.code = "test-code";
  f.message = "something";
  f.tids = {4, 5};
  const std::string out = renderFindings({f});
  EXPECT_NE(out.find("[CRITICAL] test-code: something"), std::string::npos);
  EXPECT_NE(out.find("LWPs: 4 5"), std::string::npos);
}

// --- ConfigEvaluator -------------------------------------------------------

TEST(ConfigEvaluator, Table1ShapeFlagsOversubscription) {
  const auto topo = topology::presets::frontier();
  sim::slurm::SrunArgs args;
  args.ntasks = 8;  // default: 1 core per rank
  const auto plan = sim::slurm::planSrun(topo, args);
  ConfigEvaluator::JobShape shape;
  shape.threadsPerRank = 8;  // main + 7 OpenMP
  const auto findings = ConfigEvaluator().evaluate(topo, plan, shape);
  int oversubscribed = 0;
  for (const auto& f : findings) {
    if (f.code == "rank-oversubscribed") {
      ++oversubscribed;
      EXPECT_EQ(f.severity, Severity::kCritical);
      EXPECT_NE(f.message.find("srun -c"), std::string::npos);
    }
  }
  EXPECT_EQ(oversubscribed, 8);
}

TEST(ConfigEvaluator, Table2ShapeSuggestsBinding) {
  const auto topo = topology::presets::frontier();
  sim::slurm::SrunArgs args;
  args.ntasks = 8;
  args.cpusPerTask = 7;
  const auto plan = sim::slurm::planSrun(topo, args);
  ConfigEvaluator::JobShape shape;
  shape.threadsPerRank = 7;
  shape.threadsBound = false;
  const auto findings = ConfigEvaluator().evaluate(topo, plan, shape);
  bool unbound = false;
  for (const auto& f : findings) {
    if (f.code == "rank-threads-unbound") {
      unbound = true;
      EXPECT_NE(f.message.find("OMP_PROC_BIND"), std::string::npos);
    }
    EXPECT_NE(f.code, "rank-oversubscribed");
  }
  EXPECT_TRUE(unbound);
}

TEST(ConfigEvaluator, Table3ShapeIsQuiet) {
  const auto topo = topology::presets::frontier();
  sim::slurm::SrunArgs args;
  args.ntasks = 8;
  args.cpusPerTask = 7;
  const auto plan = sim::slurm::planSrun(topo, args);
  ConfigEvaluator::JobShape shape;
  shape.threadsPerRank = 7;
  shape.threadsBound = true;
  const auto findings = ConfigEvaluator().evaluate(topo, plan, shape);
  for (const auto& f : findings) {
    EXPECT_NE(f.code, "rank-oversubscribed");
    EXPECT_NE(f.code, "rank-threads-unbound");
    EXPECT_NE(f.code, "gpu-numa-mismatch");
  }
}

TEST(ConfigEvaluator, GpuNumaMismatchFlagged) {
  const auto topo = topology::presets::frontier();
  sim::slurm::TaskPlacement tp;
  tp.rank = 0;
  tp.cpus = CpuSet::fromList("1-7");
  tp.numaDomain = 0;
  tp.gpuVisibleIndexes = {6};  // visible 6 = physical GCD 0, NUMA 3
  ConfigEvaluator::JobShape shape;
  shape.threadsPerRank = 1;
  shape.threadsBound = true;
  shape.gpusPerRank = 1;
  const auto findings = ConfigEvaluator().evaluate(topo, {tp}, shape);
  bool mismatch = false;
  for (const auto& f : findings) {
    if (f.code == "gpu-numa-mismatch") {
      mismatch = true;
      EXPECT_NE(f.message.find("--gpu-bind=closest"), std::string::npos);
    }
  }
  EXPECT_TRUE(mismatch) << renderFindings(findings);
}

TEST(ConfigEvaluator, ReservedCoreUseFlagged) {
  const auto topo = topology::presets::frontier();
  sim::slurm::TaskPlacement tp;
  tp.rank = 0;
  tp.cpus = CpuSet::fromList("0-7");  // includes reserved core 0
  ConfigEvaluator::JobShape shape;
  shape.threadsPerRank = 1;
  shape.threadsBound = true;
  const auto findings = ConfigEvaluator().evaluate(topo, {tp}, shape);
  bool reserved = false;
  for (const auto& f : findings) {
    reserved = reserved || f.code == "reserved-core-use";
  }
  EXPECT_TRUE(reserved);
}

TEST(ConfigEvaluator, NodeUndersubscriptionFlagged) {
  const auto topo = topology::presets::frontier();
  sim::slurm::SrunArgs args;
  args.ntasks = 1;
  args.cpusPerTask = 1;
  const auto plan = sim::slurm::planSrun(topo, args);
  ConfigEvaluator::JobShape shape;
  shape.threadsPerRank = 1;
  shape.threadsBound = true;
  const auto findings = ConfigEvaluator().evaluate(topo, plan, shape);
  bool under = false;
  for (const auto& f : findings) {
    under = under || f.code == "node-undersubscribed";
  }
  EXPECT_TRUE(under);
}

}  // namespace
}  // namespace zerosum::core
