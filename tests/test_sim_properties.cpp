// Property-based sweeps over the node simulator: the conservation laws and
// invariants every experiment rests on, checked across a parameter grid
// (thread counts x affinity widths x jitter) rather than single examples.
#include <gtest/gtest.h>

#include <tuple>

#include "sim/node.hpp"
#include "sim/workload.hpp"

namespace zerosum::sim {
namespace {

struct GridPoint {
  int threads;
  int hwts;
  double jitter;
};

class SimProperties : public ::testing::TestWithParam<GridPoint> {
 protected:
  /// Builds a miniQMC rank per the grid point and runs it to completion.
  void runWorkload() {
    node_ = std::make_unique<SimNode>(
        CpuSet::firstN(static_cast<std::size_t>(GetParam().hwts) + 2),
        16ULL << 30);
    MiniQmcConfig qmc;
    qmc.ompThreads = GetParam().threads;
    qmc.steps = 25;
    qmc.workPerStep = 8;
    qmc.workJitter = GetParam().jitter;
    rank_ = buildMiniQmcRank(
        *node_, CpuSet::firstN(static_cast<std::size_t>(GetParam().hwts)),
        qmc, node_->hwts());
    while (!node_->processFinished(rank_.pid) &&
           node_->now() < 200 * kHz) {
      node_->advance(37);  // odd stride: completion must not need alignment
    }
    ASSERT_TRUE(node_->processFinished(rank_.pid));
  }

  std::unique_ptr<SimNode> node_;
  BuiltRank rank_;
};

TEST_P(SimProperties, JiffiesConservePerHwt) {
  runWorkload();
  // Every HWT accounts exactly one jiffy per tick across user/system/idle.
  for (std::size_t hwt : node_->hwts().toVector()) {
    const auto& c = node_->hwtCounters(hwt);
    EXPECT_EQ(c.user + c.system + c.idle, node_->now()) << "hwt " << hwt;
  }
}

TEST_P(SimProperties, TaskTimeMatchesHwtBusyTime) {
  runWorkload();
  // The sum of all tasks' cpu time equals the sum of busy jiffies across
  // HWTs: no work is created or lost by scheduling.
  std::uint64_t taskTime = 0;
  for (Tid tid : node_->taskIds(rank_.pid)) {
    const SimTask& t = node_->task(tid);
    taskTime += t.utime + t.stime;
  }
  std::uint64_t busyTime = 0;
  for (std::size_t hwt : node_->hwts().toVector()) {
    const auto& c = node_->hwtCounters(hwt);
    busyTime += c.user + c.system;
  }
  EXPECT_EQ(taskTime, busyTime);
}

TEST_P(SimProperties, TeamWorkIsFairWithinJitter) {
  runWorkload();
  // Every team member does steps x workPerStep (1 +/- jitter) of cpu time.
  const double expected = 25.0 * 8.0;
  const double slack = GetParam().jitter + 0.08;  // jitter + rounding
  auto checkTask = [&](Tid tid) {
    const SimTask& t = node_->task(tid);
    const auto total = static_cast<double>(t.utime + t.stime);
    EXPECT_NEAR(total, expected, expected * slack) << "tid " << tid;
  };
  checkTask(rank_.mainTid);
  for (Tid tid : rank_.ompTids) {
    checkTask(tid);
  }
}

TEST_P(SimProperties, BarrierKeepsIterationsAligned) {
  runWorkload();
  // All team members completed exactly the configured iteration count.
  EXPECT_EQ(node_->task(rank_.mainTid).iterationsDone, 25u);
  for (Tid tid : rank_.ompTids) {
    EXPECT_EQ(node_->task(tid).iterationsDone, 25u);
  }
}

TEST_P(SimProperties, AffinityNeverViolated) {
  runWorkload();
  for (Tid tid : node_->taskIds(rank_.pid)) {
    const SimTask& t = node_->task(tid);
    if (t.lastCpu >= 0) {
      EXPECT_TRUE(t.affinity.test(static_cast<std::size_t>(t.lastCpu)))
          << "tid " << tid << " last ran on " << t.lastCpu << " outside "
          << t.affinity.toList();
    }
  }
}

TEST_P(SimProperties, NvctxOnlyUnderContention) {
  runWorkload();
  std::uint64_t teamNvctx = node_->task(rank_.mainTid).nonvoluntaryCtx;
  for (Tid tid : rank_.ompTids) {
    teamNvctx += node_->task(tid).nonvoluntaryCtx;
  }
  // The team shares its HWTs with the monitor daemon, so a handful of
  // wake-up preemptions are legitimate even when threads <= HWTs; the
  // bulk preemption signature appears only under oversubscription.
  if (GetParam().threads + 1 <= GetParam().hwts) {
    EXPECT_LE(teamNvctx, 30u);
  } else if (GetParam().threads > GetParam().hwts) {
    EXPECT_GT(teamNvctx, 50u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimProperties,
    ::testing::Values(GridPoint{1, 1, 0.0}, GridPoint{1, 4, 0.0},
                      GridPoint{2, 1, 0.0}, GridPoint{4, 2, 0.0},
                      GridPoint{4, 4, 0.0}, GridPoint{4, 8, 0.0},
                      GridPoint{8, 2, 0.0}, GridPoint{8, 8, 0.15},
                      GridPoint{3, 7, 0.10}, GridPoint{6, 3, 0.20},
                      GridPoint{12, 4, 0.05}, GridPoint{5, 5, 0.25}),
    [](const ::testing::TestParamInfo<GridPoint>& paramInfo) {
      // Appends, not `"t" + std::to_string(...)`: gcc 12 -O3 reports a
      // false -Wrestrict overlap for a literal prepended to a temporary.
      std::string name = "t";
      name += std::to_string(paramInfo.param.threads);
      name += "_h";
      name += std::to_string(paramInfo.param.hwts);
      name += "_j";
      name += std::to_string(static_cast<int>(paramInfo.param.jitter * 100));
      return name;
    });

}  // namespace
}  // namespace zerosum::sim
