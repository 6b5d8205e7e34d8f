// Output equivalence: one seeded simulated session, rendered through every
// text the monitor produces from its sample history — the LWP and GPU CSV
// series, the report, and the publisher's per-period batches — compared
// byte for byte with the files under tests/golden/.
//
// The session covers the cases the history layout has to keep apart: a
// thread re-bound mid-run (affinity change-points), a thread that exits,
// a full ROCm-SMI device and an NVML device that reports only a subset of
// the metrics.  When an output differs, the test writes what it produced
// to "<name>.actual" in the working directory for inspection.
#include <gtest/gtest.h>

#include <fstream>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>

#include "core/csv_export.hpp"
#include "core/monitor.hpp"
#include "export/publisher.hpp"
#include "export/stream.hpp"
#include "gpu/simulated.hpp"
#include "procfs/simfs.hpp"
#include "sim/node.hpp"

#ifndef ZS_GOLDEN_DIR
#error "ZS_GOLDEN_DIR must name the directory holding the golden files"
#endif

namespace zerosum {
namespace {

sim::Behavior work(std::uint64_t iterations, sim::Jiffies perIteration,
                   double systemFraction, sim::Jiffies block = 0) {
  sim::Behavior b;
  b.iterations = iterations;
  b.iterWorkJiffies = perIteration;
  b.systemFraction = systemFraction;
  b.blockJiffies = block;
  b.workJitter = 0.2;
  return b;
}

struct GoldenRun {
  std::string lwpCsv;
  std::string gpuCsv;
  std::string report;
  std::string published;
};

GoldenRun runScenario() {
  sim::SimNode node(CpuSet::fromList("0-3"), 8ULL << 30, {}, 0x901d);
  const sim::Pid pid = node.spawnProcess("app", CpuSet::fromList("0-3"));
  node.spawnTask(pid, "app", LwpType::kMain, work(40, 60, 0.05, 10),
                 CpuSet::fromList("0"));
  const sim::Tid worker =
      node.spawnTask(pid, "omp-worker", LwpType::kOpenMp,
                     work(40, 70, 0.02, 5), CpuSet::fromList("1"));
  node.spawnTask(pid, "cray-helper", LwpType::kOther, work(10, 40, 0.4));
  node.spawnTask(pid, "zerosum", LwpType::kZeroSum, work(0, 2, 0.5, 50),
                 CpuSet::fromList("1"));

  auto rocm = std::make_shared<gpu::SimulatedGpu>(
      0, 4, "AMD MI250X GCD", gpu::SimulatedGpuParams{}, 0x6d1);
  auto nvml = gpu::makeVendorGpu(gpu::Vendor::kNvml, 1, 1, 0x6d2);

  core::Config cfg;
  cfg.period = std::chrono::milliseconds(1000);
  cfg.jiffyHz = sim::kHz;
  cfg.signalHandler = false;
  core::ProcessIdentity identity;
  identity.rank = 3;
  identity.pid = pid;
  identity.hostname = "golden-node";
  core::MonitorSession session(cfg, procfs::makeSimProcFs(node, pid),
                               identity, {rocm, nvml});

  exporter::MetricStream stream;
  std::ostringstream published;
  published << std::setprecision(17);
  stream.subscribe([&published](const exporter::Batch& batch) {
    for (const auto& r : batch) {
      published << r.timeSeconds << ' ' << r.sourceView() << ' '
                << r.nameView() << ' ' << r.value << '\n';
    }
  });
  exporter::SessionPublisher publisher(&stream);

  for (int period = 1; period <= 12; ++period) {
    rocm->setActivity(period % 3 == 0 ? 0.0 : 0.3 + 0.05 * period);
    nvml->setActivity(0.1 * (period % 5));
    if (period == 4) {
      rocm->allocate(3ULL << 30);
      nvml->allocate(1ULL << 30);
    }
    if (period == 6) {
      node.setTaskAffinity(worker, CpuSet::fromList("2-3"));
    }
    rocm->advance(1.0);
    nvml->advance(1.0);
    node.advance(sim::kHz);
    session.sampleNow(node.nowSeconds());
    publisher.publish(session, node.nowSeconds());
  }

  GoldenRun out;
  std::ostringstream lwp;
  core::CsvExporter::writeLwpSeries(lwp, session.lwps().records());
  out.lwpCsv = lwp.str();
  std::ostringstream gpus;
  core::CsvExporter::writeGpuSeries(gpus, session.gpus().records());
  out.gpuCsv = gpus.str();
  out.report = session.report();
  out.published = published.str();
  return out;
}

std::string readGolden(const std::string& name) {
  std::ifstream in(std::string(ZS_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

void expectGolden(const std::string& name, const std::string& actual) {
  const std::string expected = readGolden(name);
  if (actual != expected) {
    std::ofstream(name + ".actual", std::ios::binary) << actual;
  }
  EXPECT_FALSE(expected.empty()) << "golden file " << name << " is missing";
  EXPECT_TRUE(actual == expected)
      << name << " differs from " << ZS_GOLDEN_DIR << "/" << name
      << "; this run's output is in " << name << ".actual";
}

class GoldenOutput : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { run_ = runScenario(); }
  static GoldenRun run_;
};

GoldenRun GoldenOutput::run_;

TEST_F(GoldenOutput, LwpSeriesMatches) {
  expectGolden("session_lwp.csv", run_.lwpCsv);
}

TEST_F(GoldenOutput, GpuSeriesMatches) {
  expectGolden("session_gpu.csv", run_.gpuCsv);
}

TEST_F(GoldenOutput, ReportMatches) {
  expectGolden("session_report.txt", run_.report);
}

TEST_F(GoldenOutput, PublishedBatchesMatch) {
  expectGolden("session_published.txt", run_.published);
}

TEST_F(GoldenOutput, ScenarioCoversTheHistoryCases) {
  // Guards the golden files against a scenario that stops exercising
  // what they are meant to pin down.
  EXPECT_NE(run_.lwpCsv.find("\"2-3\""), std::string::npos);
  EXPECT_NE(run_.lwpCsv.find("\"1\""), std::string::npos);
  EXPECT_NE(run_.report.find("(exited)"), std::string::npos);
  EXPECT_NE(run_.gpuCsv.find("1,\"Power Average (W)\""), std::string::npos);
  EXPECT_EQ(run_.gpuCsv.find("1,\"GFX Activity\""), std::string::npos);
}

}  // namespace
}  // namespace zerosum
