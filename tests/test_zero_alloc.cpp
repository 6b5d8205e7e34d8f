// The zero-allocation contract of the sampling hot path, enforced with a
// counting global operator new (alloc_hook.hpp — which is why this test
// lives in its own binary: the hook replaces the allocator for the whole
// process).
//
// Each test warms its loop first — interning metric names, growing
// scratch buffers and batch vectors to their steady-state capacity,
// populating fd caches — and then asserts that N further iterations
// perform ZERO heap allocations.  History retention (tracker sample
// vectors) is excluded by design: it grows amortized-O(1) by doubling,
// which is bounded but not zero; the paper's "do no harm" budget is
// about the per-period work, which these loops cover end to end.
#include "common/alloc_hook.hpp"
//
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "aggregator/client.hpp"
#include "aggregator/transport.hpp"
#include "aggregator/wire.hpp"
#include "common/cpuset.hpp"
#include "common/interning.hpp"
#include "core/monitor.hpp"
#include "export/publisher.hpp"
#include "export/stream.hpp"
#include "gpu/simulated.hpp"
#include "procfs/parse.hpp"
#include "procfs/procfs.hpp"
#include "procfs/simfs.hpp"
#include "sim/workload.hpp"

namespace zerosum {
namespace {

constexpr int kWarmup = 100;
constexpr int kMeasured = 200;

/// Runs `fn` kWarmup times, then kMeasured times under the counter;
/// returns the allocation count of the measured span.
template <typename Fn>
std::uint64_t measuredAllocations(Fn&& fn) {
  for (int i = 0; i < kWarmup; ++i) {
    fn();
  }
  const std::uint64_t before = allochook::allocations();
  for (int i = 0; i < kMeasured; ++i) {
    fn();
  }
  return allochook::allocations() - before;
}

TEST(ZeroAlloc, HookCountsAllocations) {
  const std::uint64_t before = allochook::allocations();
  auto* p = new int(7);
  EXPECT_GE(allochook::allocations() - before, 1u);
  delete p;
}

TEST(ZeroAlloc, ProcfsReadAndParseSteadyState) {
  auto fs = procfs::makeRealProcFs();
  const int pid = fs->selfPid();
  std::string buf;
  procfs::ProcStatus status;
  procfs::TaskStat stat;
  procfs::MemInfo mem;
  procfs::StatSnapshot snap;
  std::vector<int> tids;
  const std::uint64_t allocs = measuredAllocations([&] {
    fs->readProcessStatusInto(pid, buf);
    procfs::parseStatusInto(buf, status);
    fs->readTaskStatInto(pid, pid, buf);
    procfs::parseTaskStatInto(buf, stat);
    fs->readMeminfoInto(buf);
    procfs::parseMeminfoInto(buf, mem);
    fs->readStatInto(buf);
    procfs::parseStatInto(buf, snap);
    fs->listTasksInto(pid, tids);
  });
  EXPECT_EQ(allocs, 0u) << "procfs read+parse must not allocate once warm";
  EXPECT_GT(status.vmRssKb, 0u);  // the loop really read this process
  EXPECT_FALSE(tids.empty());
}

TEST(ZeroAlloc, PublishPathSteadyState) {
  sim::SimNode node(CpuSet::fromList("0-3"), 4ULL << 30);
  sim::MiniQmcConfig qmc;
  qmc.ompThreads = 2;
  qmc.steps = 100;
  qmc.workPerStep = 20;
  const auto rank =
      sim::buildMiniQmcRank(node, CpuSet::fromList("0-1"), qmc, node.hwts());
  core::Config cfg;
  cfg.jiffyHz = sim::kHz;
  cfg.signalHandler = false;
  core::MonitorSession session(cfg, procfs::makeSimProcFs(node, rank.pid));
  node.advance(sim::kHz);
  const double t = node.nowSeconds();
  session.sampleNow(t);

  exporter::MetricStream stream;
  std::uint64_t delivered = 0;
  stream.subscribe([&delivered](const exporter::Batch& batch) {
    delivered += batch.size();
  });
  exporter::SessionPublisher publisher(&stream);
  const std::uint64_t allocs = measuredAllocations([&] {
    publisher.publish(session, t);
  });
  EXPECT_EQ(allocs, 0u)
      << "batch build + stream fan-out must not allocate once warm";
  EXPECT_GT(delivered, 0u);
}

TEST(ZeroAlloc, GpuQueryAndAccumulateSteadyState) {
  // One full-surface device and one NVML-subset device, each folded into
  // its record as GpuTracker does every period.  The history vectors are
  // reserved, so what is measured is the query and the accumulator
  // update: a sample is a fixed-size value, not a node per metric.
  gpu::SimulatedGpu rocm(0, 0, "gcd");
  auto nvml = gpu::makeVendorGpu(gpu::Vendor::kNvml, 1, 1);
  core::GpuRecord full;
  core::GpuRecord subset;
  full.samples.reserve(kWarmup + kMeasured);
  subset.samples.reserve(kWarmup + kMeasured);
  double t = 0.0;
  const std::uint64_t allocs = measuredAllocations([&] {
    t += 1.0;
    rocm.setActivity(0.5);
    rocm.advance(1.0);
    nvml->advance(1.0);
    full.addSample(t, rocm.query());
    subset.addSample(t, nvml->query());
  });
  EXPECT_EQ(allocs, 0u)
      << "GPU query + accumulate must not allocate once warm";
  EXPECT_EQ(full.samples.size(),
            static_cast<std::size_t>(kWarmup + kMeasured));
  EXPECT_EQ(full.accumulators.size(), gpu::kAllMetrics.size());
  EXPECT_EQ(full.accumulators.at(gpu::Metric::kDeviceBusyPct).count(),
            static_cast<std::size_t>(kWarmup + kMeasured));
  EXPECT_EQ(subset.accumulators.size(),
            gpu::vendorMetrics(gpu::Vendor::kNvml).size());
}

TEST(ZeroAlloc, AggregatorClientEnqueueSteadyState) {
  auto hub = std::make_shared<aggregator::PipeHub>();
  aggregator::Hello hello;
  hello.job = "test";
  hello.rank = 0;
  hello.worldSize = 1;
  hello.hostname = "node0000";
  hello.pid = 1234;
  aggregator::ClientOptions options;
  options.batchRecords = 1U << 20;  // keep the wire edge out of the loop
  // Small queue bound so the vector FIFO finishes its first
  // overflow/compaction cycle — reaching its fixed capacity — in warmup.
  options.maxQueueRecords = 256;
  // This measures the plain bounded-queue path; the pinned-full queue
  // would otherwise escalate the degradation ladder.
  options.adaptive = false;
  aggregator::Client client(hub->makeClientTransport(), hello, options);
  std::vector<aggregator::IdRecord> batch;
  for (int i = 0; i < 32; ++i) {
    batch.push_back({1.0, names::intern("za.metric." + std::to_string(i)),
                     static_cast<double>(i)});
  }
  const std::uint64_t allocs = measuredAllocations([&] {
    client.enqueueIds(batch, 1.0);
  });
  EXPECT_EQ(allocs, 0u)
      << "bounded-queue enqueue must not allocate once warm";
  EXPECT_GT(client.counters().recordsEnqueued, 0u);
}

TEST(ZeroAlloc, InternedLookupIsAllocationFree) {
  const names::Id id = names::intern("za.lookup.metric");
  const std::uint64_t allocs = measuredAllocations([&] {
    const std::string_view v = names::lookup(id);
    ASSERT_EQ(v, "za.lookup.metric");
    ASSERT_EQ(names::intern(v), id);  // re-interning an existing name
  });
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace zerosum
